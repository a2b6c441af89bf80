"""Run one ``matsuki`` command as ``python -m matsuki.cli`` would, then read
the speed of this process.

Usage: python3 -B -S bench/cli_run.py READING_FILE [ARG ...]

Nothing of the benchmark is imported before the command, so the command
starts as cold as under ``-m``.  After it returns, the speed probes run in
this same process (a probe reads the speed of its own process only; see
``bench/speed.py``), and ``{"tail_s": ..., "probes": [...]}`` is written to
READING_FILE, where ``tail_s`` is the time from the end of the command to
the end of the probes, which the caller takes off the process's wall time.
Exits with the command's exit code.
"""

import os
import runpy
import sys
import time

PROBES = 7


def main() -> int:
    reading_path, args = sys.argv[1], sys.argv[2:]
    bench_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path[0] = os.getcwd()  # as under -m
    sys.argv = [sys.argv[0], *args]
    code = 0
    try:
        runpy.run_module("matsuki.cli", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code
    done = time.perf_counter()
    import json

    sys.path.insert(0, bench_root)
    from bench import speed

    probes = [speed.probe() for _ in range(PROBES)]
    with open(reading_path, "w", encoding="utf-8") as out:
        json.dump({"tail_s": time.perf_counter() - done, "probes": probes}, out)
    return code


if __name__ == "__main__":
    sys.exit(main())
