"""Run one ``matsuki`` command in this fresh process under the benchmark's tracer.

Usage: python3 -B bench/cli_shim.py STATS_FILE [ARG ...]

Times ``import matsuki.cli``, wraps the traced functions, runs the command
and writes ``{"import_s": ..., "totals": {...}}`` to STATS_FILE.  Without
arguments it only times the import.  Exits with the command's exit code.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from bench.layers import CLI_TARGETS  # noqa: E402
from bench.tracing import Tracer  # noqa: E402


def main() -> int:
    stats_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import matsuki.cli

    import_s = time.perf_counter() - start
    tracer = Tracer()
    code = 0
    try:
        if argv:
            tracer.install(CLI_TARGETS)
            code = matsuki.cli.main(argv)
    finally:
        tracer.uninstall()
        Path(stats_path).write_text(json.dumps({"import_s": import_s, "totals": tracer.totals}), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
