"""Cold-start and matrix-layer curves: what a fresh process pays for the
benchmark's set-up and for one command of each subcommand, and what the
invariants cost as their loops grow.

    python tests/curves.py [--record FILE] [NAME=ROOT ...]

Each NAME=ROOT is a checkout whose package is read from ROOT/src; with none,
the checkout this script lives in, named ``this``.  Several checkouts are
run in turn, the order alternating from one run to the next, so a drift of
the machine's speed falls on all of them alike.  The points are:

- ``setup``: ``bench/run.py``'s ``SETUP_CODE`` (import the package, then the
  catalog and form lookups), timed inside a fresh ``-B -S`` interpreter that
  compiles the package, as ``measure_setup`` times it;
- ``source/<command>``: one command per subcommand, as the installed
  ``matsuki`` script runs it (``matsuki.cli.main`` imported without
  ``runpy``), in a fresh ``-B -S`` interpreter that compiles the package;
- ``compiled/<command>``: the same commands reading the package's bytecode,
  which ``compileall`` wrote beforehand;
- ``dense/<T>/<invariant>``: each of the four invariants of
  ``oracles.dense_unipotent(T)``, the gl3 loop with T terms in each entry
  above the diagonal, at T = 25 to 800, doubling;
- ``sparse/<N>/<invariant>``: ``splitting_type`` and ``r_orbit_invariant`` of
  the sparse gl2 loop [[1, x], [0, 1]] [[1, 0], [t, 1]] [[1, z], [0, 1]] with
  x = t^N - 1 and z = t^-N + t^3, at N = 250 to 4,000, doubling.

Each curve point runs in a fresh ``-B -S`` interpreter that builds the loop
and runs each invariant once on the identity loop of its form, which reads
the form's catalog entry, before the timed calls.

Every run has ``-X pycache_prefix`` at a directory of this script's own,
which holds the bytecode of the standard-library modules the runs load,
and for ``compiled`` that of the package too; so no bytecode
left beside a checkout's sources is read, and the standard library is read
from bytecode as in any installed Python.  A command's time is the wall
time of its process, start-up and exit included, less the time from the end
of the command to the end of the speed probes it runs afterwards.  Every
time is scaled to the reference speed by the probes the same process runs
after its timed part (``bench/speed.py``).  Each point is the median of
``RUNS`` runs with its quartiles; ``--record`` writes them as JSON.  Exits 1
if a command fails or prints differently in two checkouts, or if two
checkouts' invariants differ.  Standard library, ``bench`` and
``tests/oracles.py`` only; pytest does not collect it.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from bench import speed  # noqa: E402
from bench.run import SETUP_CODE, SETUP_PROBES  # noqa: E402
from bench.workloads import CHILD_FLAGS  # noqa: E402

RUNS = 5
MATRIX_FILE = (  # a gl3 loop with an upper-triangular entry: every invariant has work to do
    "form: gl3_split\nsize: 3\nentry 1 1: (1, 1/1, 0/1)\nentry 1 2: (2, 3/1, 0/1) (0, 1/2, 0/1)\n"
    "entry 2 2: (0, 1/1, 0/1)\nentry 2 3: (-1, 2/1, 0/1)\nentry 3 3: (-1, 1/1, 0/1)\n"
)
COMMANDS = {
    "catalog": ["catalog"],
    "orbits": ["orbits", "gl3_split", "--height", "8"],
    "poset": ["poset", "pgl2_so21", "--height", "20"],
    "dual": ["dual", "gl2_split", "1", "-1"],
    "core": ["core", "sl3_split", "2", "2"],
    "pi1": ["pi1", "sl3_split"],
    "invariant": ["invariant", "{matrix}"],
    "check": ["check", "sl2_compact"],
}

# the command as the console script runs it, then the probes; the tail and
# the probes go to stderr, the report to stdout
COMMAND_CODE = """
import sys, time
from matsuki.cli import main
code = main({argv!r})
done = time.perf_counter()
sys.path.insert(0, {root!r})
from bench import speed
probes = [speed.probe() for _ in range({probes})]
print(time.perf_counter() - done, *probes, file=sys.stderr)
sys.exit(code)
"""

DENSE_TERMS = (25, 50, 100, 200, 400, 800)
SPARSE_N = (250, 500, 1000, 2000, 4000)
SPARSE_LOOP = """
one, zero, t = lm.LaurentPoly.one(), lm.LaurentPoly.zero(), lm.LaurentPoly.t_power
x, z = t({n}) - one, t(-{n}) + t(3)
factors = [[[one, x], [zero, one]], [[one, zero], [t(1), one]], [[one, z], [zero, one]]]
g = functools.reduce(lm.mat_mul, [lm.lm_from_rows("gl2_split", rows) for rows in factors])
"""
CURVES = {  # curve: its sizes, the code that builds its loop g at size n, the invariants timed on g
    "dense": (DENSE_TERMS, "from oracles import dense_unipotent\ng = dense_unipotent({n})",
              ("stratum_invariant", "splitting_type", "k_orbit_invariant", "r_orbit_invariant")),
    "sparse": (SPARSE_N, SPARSE_LOOP, ("splitting_type", "r_orbit_invariant")),
}

# one curve point: the loop, each invariant once on the identity loop, then the timed calls and
# the probes; the values go to stdout, the times and the probes to stderr
CURVE_CODE = """
import functools, sys, time
sys.path[:0] = [{tests!r}, {root!r}]
from matsuki import loopmatrix as lm
{build}
invariants = [getattr(lm, name) for name in {names!r}]
for invariant in invariants:
    invariant(lm.identity_loop(g.form, g.n))
times = []
for invariant in invariants:
    start = time.perf_counter()
    value = invariant(g)
    times.append(time.perf_counter() - start)
    print(invariant.__name__, value)
from bench import speed
print(*times, *(speed.probe() for _ in range({probes})), file=sys.stderr)
"""

# after the set-up, every command, then the source file of each module loaded, to stderr
LOADED_CODE = """
from matsuki.cli import main
for argv in {commands!r}:
    main(argv)
print(*sorted({{getattr(m, "__file__", None) or "" for m in list(sys.modules.values())}}), sep="\\n", file=sys.stderr)
"""


def python(tree: Path, args, prefix=None):
    flags = [*CHILD_FLAGS, "-X", f"pycache_prefix={prefix}"] if prefix else list(CHILD_FLAGS)
    return subprocess.run([sys.executable, *flags, *args], cwd=tree, env=dict(os.environ, PYTHONPATH=str(tree / "src")),
                          capture_output=True, text=True, timeout=120, check=False)


def compile_into(prefix: Path, paths) -> None:
    result = python(ROOT, ["-m", "compileall", "-q", *map(str, paths)], prefix=prefix)
    if result.returncode != 0:
        raise SystemExit(f"compileall failed: {result.stdout}{result.stderr}")


def build_prefixes(trees, commands, work: Path):
    """The two bytecode prefixes: the standard library the runs of every tree
    load, and the same plus each tree's package."""
    stdlib = set()
    for tree in trees.values():
        result = python(tree, ["-c", SETUP_CODE + LOADED_CODE.format(commands=list(commands.values()))])
        if result.returncode != 0:
            raise SystemExit(f"{tree}: {result.stderr.strip()[-300:]}")
        stdlib |= {f for f in result.stderr.splitlines() if f.endswith(".py") and not f.startswith((str(tree), str(ROOT)))}
    source, compiled = work / "source", work / "compiled"
    compile_into(source, sorted(stdlib))
    compile_into(compiled, [*sorted(stdlib), *(tree / "src" / "matsuki" for tree in trees.values())])
    return {"source": source, "compiled": compiled}


def time_setup(tree: Path, prefix: Path) -> tuple[float, float]:
    result = python(tree, ["-c", SETUP_CODE], prefix=prefix)
    if result.returncode != 0:
        raise SystemExit(f"{tree}: set-up failed: {result.stderr.strip()[-300:]}")
    took, *probes = map(float, result.stdout.split())
    return took * speed.factor(probes), took


def time_command(tree: Path, argv, prefix: Path) -> tuple[float, float, str]:
    code = COMMAND_CODE.format(argv=argv, root=str(ROOT), probes=SETUP_PROBES)
    start = time.perf_counter()
    result = python(tree, ["-c", code], prefix=prefix)
    wall = time.perf_counter() - start
    if result.returncode != 0:
        raise SystemExit(f"{tree}: {' '.join(argv)} exited {result.returncode}: {result.stderr.strip()[-300:]}")
    tail, *probes = map(float, result.stderr.split()[-1 - SETUP_PROBES:])
    took = wall - tail
    return took * speed.factor(probes), took, result.stdout


def time_curve(tree: Path, build: str, names, prefix: Path) -> tuple[list[tuple[float, float]], str]:
    """Each invariant's scaled and raw time on the loop that ``build`` makes, and their values."""
    code = CURVE_CODE.format(tests=str(ROOT / "tests"), root=str(ROOT), build=build, names=names, probes=SETUP_PROBES)
    result = python(tree, ["-c", code], prefix=prefix)
    if result.returncode != 0:
        raise SystemExit(f"{tree}: curve point failed: {result.stderr.strip()[-300:]}")
    numbers = list(map(float, result.stderr.split()))
    times, probes = numbers[:len(names)], numbers[len(names):]
    return [(took * speed.factor(probes), took) for took in times], result.stdout


def summary(scaled, raw) -> dict:
    q1, _, q3 = statistics.quantiles(scaled, n=4)
    return {"median_s": statistics.median(scaled), "q1_s": q1, "q3_s": q3, "raw_median_s": statistics.median(raw),
            "runs_s": scaled}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--record", type=Path, help="write the points to this JSON file")
    parser.add_argument("trees", nargs="*", metavar="NAME=ROOT", help="checkouts to measure (default: this one)")
    args = parser.parse_args(argv)
    trees = {name: Path(root).resolve() for name, _, root in (t.partition("=") for t in args.trees)}
    trees = trees or {"this": ROOT}
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="matsuki-curves-") as tmp:
        work = Path(tmp)
        (work / "loop.matrix").write_text(MATRIX_FILE, encoding="utf-8")
        commands = {name: [a.format(matrix=work / "loop.matrix") for a in argv] for name, argv in COMMANDS.items()}
        prefixes = build_prefixes(trees, commands, work)
        samples = {name: {} for name in trees}
        outputs = {}
        for run in range(RUNS):
            for name in (list(trees) if run % 2 == 0 else list(trees)[::-1]):
                tree = trees[name]
                samples[name].setdefault("setup", []).append(time_setup(tree, prefixes["source"]))
                for kind, prefix in prefixes.items():
                    for command, argv in commands.items():
                        scaled, raw, out = time_command(tree, argv, prefix)
                        samples[name].setdefault(f"{kind}/{command}", []).append((scaled, raw))
                        outputs.setdefault(command, set()).add(out)
                for curve, (sizes, build, names) in CURVES.items():
                    for n in sizes:
                        timed, out = time_curve(tree, build.format(n=n), names, prefixes["source"])
                        for invariant, sample in zip(names, timed):
                            samples[name].setdefault(f"{curve}/{n}/{invariant}", []).append(sample)
                        outputs.setdefault(f"{curve}/{n}", set()).add(out)
    wall = time.perf_counter() - start
    differing = sorted(command for command, seen in outputs.items() if len(seen) > 1)
    points = {name: {point: summary(*map(list, zip(*runs))) for point, runs in per_tree.items()}
              for name, per_tree in samples.items()}
    print(f"{'point':<30}" + "".join(f"{name + ' ms, median [q1-q3]':>34}" for name in trees))
    for point in points[next(iter(trees))]:
        cells = (points[name][point] for name in trees)
        print(f"{point:<30}" + "".join(
            f"{c['median_s'] * 1e3:>16.1f} [{c['q1_s'] * 1e3:.1f}-{c['q3_s'] * 1e3:.1f}]".rjust(34) for c in cells))
    print(f"wall time: {wall:.0f} s")
    if args.record:
        record = {
            "what": "cold start: benchmark set-up and one console-script command per subcommand, from source and "
                    "from bytecode; the invariants on the dense and the sparse loops, each point in a fresh "
                    "interpreter; seconds at the reference speed of bench/speed.py",
            "python": platform.python_version(), "machine": platform.machine(), "cpus": os.cpu_count(),
            "runs": RUNS, "commands": {name: " ".join(argv).format(matrix="loop.matrix") for name, argv in COMMANDS.items()},
            "matrix_file": MATRIX_FILE,
            "curves": {"dense": {"terms": DENSE_TERMS, "loop": "tests/oracles.py dense_unipotent(T)",
                                 "invariants": CURVES["dense"][2]},
                       "sparse": {"n": SPARSE_N, "loop": "gl2 [[1, t^N - 1], [0, 1]] [[1, 0], [t, 1]] "
                                  "[[1, t^-N + t^3], [0, 1]]", "invariants": CURVES["sparse"][2]}},
            "wall_s": wall, "points": points,
        }
        args.record.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if differing:
        print(f"stdout or invariants differ between checkouts: {', '.join(differing)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
