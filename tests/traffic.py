"""List the statements of ``src/matsuki`` that the benchmark's traffic never runs.

    python tests/traffic.py

Runs, under the line trace of ``uncovered.py``, what the benchmark's three
workloads ask of the package at seed 1, and the full property check:

- the ``loops`` rounds of a 25-second run, each loop through ``classify``;
- the ``posets`` rounds of a 25-second run through ``run_query``, each query
  but a reslice from cold caches, as the harness runs them;
- three ``cli`` rounds, each command through ``matsuki.cli.main`` in this
  process from cold caches, with its output captured;
- ``check --all --seed 7``, the same way.

The package is imported and the rounds are generated under the trace too.
Afterwards, untraced, each workload checks its results against its oracles
and the number of problems is printed.  Then the script prints one
``module.py:line: source`` line per statement that never ran, and their
number.  A listed statement is one that no workload operation reaches: a
refusal, a public function that only tests or library users call, or a
start-up fallback that a command in a fresh process would take.  It is a
report, not a gate, and exits 0.  It imports the standard library, the
package and ``bench`` only; pytest does not collect it.
"""

import contextlib
import io
import sys
import tempfile
from pathlib import Path

from uncovered import ROOT, line_trace, report

SEED = 1
SECONDS = 25
CLI_ROUNDS = 3
CHECK = ["check", "--all", "--seed", "7"]


def in_process(argv):
    """(exit code, stdout, stderr) of one command run through ``matsuki.cli.main``."""
    from matsuki import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def traffic(work: Path):
    """Every operation named in the module docstring, with the rounds and results to check."""
    from bench import workloads
    from bench.run import ColdState
    from bench.workloads.loops import classify
    from bench.workloads.posets import run_query

    cold = ColdState()
    checked = []
    for name in ("loops", "posets", "cli"):
        workload = workloads.get(name, ROOT)
        workload.work, workload.cold = work, cold
        rounds = workload.make_rounds(SEED, CLI_ROUNDS if name == "cli" else workloads.round_count(workload, SECONDS))
        for round_ in rounds:
            results = []
            for op in round_.ops:
                if name == "loops":
                    results.append(classify(op))
                elif name == "posets":
                    workload.prepare(op)
                    results.append(run_query(op))
                else:
                    cold.clear()
                    results.append(in_process(op[1]))
            checked.append((workload, round_, results))
    cold.clear()
    return checked, in_process(CHECK)


def main() -> int:
    sys.path[0:0] = [str(ROOT / "src"), str(ROOT)]
    with tempfile.TemporaryDirectory() as work:
        (checked, check_all), ran = line_trace(lambda: traffic(Path(work)))
        problems = sum(p is not None for workload, round_, results in checked for p in workload.check(round_, results))
    if check_all[0] != 0 or not check_all[1].endswith("check: all suites passed\n"):
        problems += 1
    print(f"workload problems: {problems}")
    report(ran)
    return 0


if __name__ == "__main__":
    sys.exit(main())
