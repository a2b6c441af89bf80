"""Run one workload of the matsuki benchmark and print its metrics.

Usage, from the repository root:

    python3 bench/run.py --workload loops|posets|cli --seed N --seconds S --trace 0|1

With ``--trace 0`` the workload runs rounds of operations, one at a time:
as many rounds as make about S seconds of operations over ``passes`` passes
and at least ``min_ops`` distinct operations, each round replayed ``passes``
times (see ``timed_run``), with latencies scaled to a reference CPU speed
(see ``speed``); it prints the end-to-end metrics.  With ``--trace 1`` it
replays a fixed number of rounds twice, untraced and then with spans around
the package's public functions, and prints the per-layer metrics.  Every round
starts from a cold package: the ``lru_cache`` tables are cleared and the
set-up lookups repeated, outside the timed region.  Outputs are checked
after each round, also outside the timed region.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A full record of the
run is written under ``.bench_build/matsuki-bench/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if __name__ == "__main__":  # import the package and the harness of this checkout
    sys.path[0:1] = [str(SRC), str(ROOT)]
    sys.dont_write_bytecode = True  # keep the bytecode-cache state the same on every run

from bench import layers, speed, stats  # noqa: E402
from bench import workloads  # noqa: E402
from bench.tracing import Tracer  # noqa: E402
from bench.workloads import CHILD_FLAGS, raised  # noqa: E402

STATE = ROOT / ".bench_build" / "matsuki-bench"
SETUP_RUNS = 15  # fewest fresh interpreters timed for setup_s; the median is reported
SETUP_PROBES = 5  # speed probes each of them runs after its timed part
IMPORT_RUNS = 5  # fresh interpreters timed for cli.import_s outside the cli workload
WALL_LIMIT_S = 120  # no pass starts after this many seconds of a timed run
CHILD_TIMEOUT_S = 60

SETUP_CODE = f"""
import sys, time
start = time.perf_counter()
from matsuki import loopmatrix, realform
for name in realform.catalog_names():
    realform.catalog(name)
for name in loopmatrix.form_names():
    loopmatrix.form_action(name)
took = time.perf_counter() - start
sys.path.insert(0, {str(ROOT)!r})
from bench import speed
print(took, *(speed.probe() for _ in range({SETUP_PROBES})))
"""

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark cannot produce a trustworthy number."""


def child_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(SRC))


def pin_to_one_cpu() -> None:
    """Run the harness and its child processes on one CPU, so that the speed
    probes run where the timed ``cli`` commands run."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run_child(args: list[str]) -> str:
    proc = subprocess.run(
        [sys.executable, *CHILD_FLAGS, *args], cwd=ROOT, env=child_env(),
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"child {args[:2]} exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
    return proc.stdout


def measure_setup() -> tuple[float, float]:
    """Import of the package plus the first catalog and form lookups in a
    fresh interpreter; returns the time at the reference speed, read from
    probes that the same interpreter runs right after (see ``speed``), and
    the measured time."""
    took, *probes = map(float, run_child(["-c", SETUP_CODE]).split())
    return took * speed.factor(probes), took


def measure_cli_import(work: Path) -> list[float]:
    record = work / "import.json"
    times = []
    for _ in range(IMPORT_RUNS):
        run_child([str(ROOT / "bench" / "cli_shim.py"), str(record)])
        times.append(json.loads(record.read_text(encoding="utf-8"))["import_s"])
    return times


class ColdState:
    """Puts the imported package back into the state of a fresh interpreter
    after set-up: every ``lru_cache`` of the package cleared, then the set-up
    lookups done again.  The functions are bound when the state is made, so
    the lookups bypass any tracer installed later."""

    def __init__(self):
        from matsuki import loopmatrix, realform

        seen = {}
        for name, module in sorted(sys.modules.items()):
            if module is not None and (name == "matsuki" or name.startswith("matsuki.")):
                for value in vars(module).values():
                    if hasattr(value, "cache_clear"):
                        seen[id(value)] = value
        self.caches = list(seen.values())
        self.lookups = [(realform.catalog, realform.catalog_names()), (loopmatrix.form_action, loopmatrix.form_names())]

    def clear(self) -> None:
        for cache in self.caches:
            cache.cache_clear()
        for lookup, names in self.lookups:
            for name in names:
                lookup(name)

    def reset(self) -> None:
        self.clear()
        gc.collect()


def execute(workload, round_, tracer=None, scale=False):
    """Run a round's operations back to back; returns the results, the
    seconds per op and, with ``scale``, per op the multiplier to the
    reference speed (see ``speed``; 1 without ``scale``).  In this process a
    probe runs before every operation and once after the last, and an
    operation is scaled by the two around it; a command in a child process
    is scaled by the probes the child ran after it (``workload.reading``).
    The time of those probes is taken off the command's, scaled or not."""
    results, times, probes, factors = [], [], [], []
    for op in round_.ops:
        workload.prepare(op)
        if scale and workload.in_process:
            probes.append(speed.probe())
        start = time.perf_counter()
        try:
            result = workload.run_op(op, tracer)
        except Exception as exc:  # a failed operation is counted, not fatal
            result = exc
        times.append(time.perf_counter() - start)
        results.append(result)
        if not workload.in_process and workload.reading is not None:
            tail_s, child_probes = workload.reading
            times[-1] -= tail_s
            factors.append(speed.factor(child_probes) if scale else 1.0)
        else:
            factors.append(1.0)
    if scale and workload.in_process:
        probes.append(speed.probe())
        factors = [speed.factor(probes[j:j + 2]) for j in range(len(times))]
    return results, times, factors


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def bench_source_digest() -> str:
    files = sorted(p for p in (ROOT / "bench").rglob("*.py") if "tests" not in p.parts)
    return digest("".join(p.read_text(encoding="utf-8") for p in files))[:16]


def check_digests(workload: str, seed: int, digests: list[str]) -> None:
    """Compare each round's input digest with earlier runs of the same seed,
    round count and benchmark code in this checkout; a difference means the
    inputs are not a function of the seed."""
    path = STATE / "digests.json"
    known = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    entry = known.setdefault(f"{workload}:{seed}:{len(digests)}:{bench_source_digest()}", {})
    for index, value in enumerate(digests):
        prior = entry.setdefault(str(index), value)
        if prior != value:
            raise BenchError(f"{workload} seed {seed} round {index}: input digest {value} differs from {prior}")
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True), encoding="utf-8")
    os.replace(tmp, path)


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "bytecode_cache_present": (SRC / "matsuki" / "__pycache__").exists(),
    }


def peak_rss_mb(workload) -> float:
    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024  # Linux reports KiB


def timed_run(workload, seed: int, seconds: float, cold):
    """Time every round ``workload.passes`` times, pass after pass, scale each
    operation's time to the reference speed (see ``execute``), and take each
    operation's median over the passes.  After each round, outside the
    operations' timing, set-up is timed in fresh interpreters, so that
    ``setup_s`` samples the whole run.  The number of rounds follows from
    ``seconds`` (see ``workloads.round_count``).  The first pass is checked by the workload's
    oracles, later passes by equality with the first."""
    rounds = workload.make_rounds(seed, workloads.round_count(workload, seconds))
    scaled = [[] for _ in rounds]  # per round, one list of op times per pass
    measured = [[] for _ in rounds]
    setups_per_round = math.ceil(SETUP_RUNS / (len(rounds) * workload.passes))
    setups = []
    answers, problems, pass_s, factors = [], [], [], []
    started = time.monotonic()
    for pass_index in range(workload.passes):
        if pass_index and time.monotonic() - started > WALL_LIMIT_S:
            break
        pass_s.append(0.0)
        for i, round_ in enumerate(rounds):
            cold.reset()
            results, times, round_factors = execute(workload, round_, scale=True)
            pass_s[-1] += sum(times)
            measured[i].append(times)
            scaled[i].append([t * f for t, f in zip(times, round_factors)])
            factors.append(sum(round_factors) / len(round_factors))
            setups += [measure_setup() for _ in range(setups_per_round)]
            if pass_index == 0:
                problems += workload.check(round_, results)
                answers.append([digest(repr(r)) for r in results])
            else:
                problems += [
                    raised(r) or (None if digest(repr(r)) == first else "result differs from the first pass")
                    for r, first in zip(results, answers[i])
                ]
    metrics = latency_metrics(scaled)
    metrics["setup_s"] = stats.median([scaled_s for scaled_s, _ in setups])
    notes = {
        "distinct_ops": sum(len(r.ops) for r in rounds),
        "p90_samples_beyond": stats.samples_beyond(sum(len(r.ops) for r in rounds), 90),
        "passes_done": len(pass_s),
        "pass_s": pass_s,
        "speed_factors": factors,
        "measured": {**latency_metrics(measured), "setup_s": stats.median([took for _, took in setups])},
        "setup_runs_s": setups,
        "latency_ms": [stats.median(op) * 1000 for passes in scaled for op in zip(*passes)],
    }
    return metrics, problems, [digest(r.inputs) for r in rounds], notes


def latency_metrics(samples) -> dict[str, float]:
    """End-to-end latency metrics from per-round lists of per-pass op times:
    each operation's latency is the median of its passes."""
    ms = [stats.median(op) * 1000 for passes in samples for op in zip(*passes)]
    return {
        "ops_per_s": len(ms) * 1000 / sum(ms),
        "op_ms_p50": stats.percentile(ms, 50),
        "op_ms_p90": stats.percentile(ms, 90),
    }


def traced_run(workload, seed: int, cold, work: Path):
    """Run each of ``trace_rounds`` rounds untraced and traced, the untraced
    run first in even rounds and second in odd ones, since a round's second
    run in a process tends to be a little faster than its first."""
    tracer = Tracer()
    elapsed = {False: 0.0, True: 0.0}  # seconds at the reference speed, untraced and traced
    ops = 0
    problems, digests = [], []
    for index, round_ in enumerate(workload.make_rounds(seed, workload.trace_rounds)):
        digests.append(digest(round_.inputs))
        for traced in (False, True) if index % 2 == 0 else (True, False):
            cold.reset()
            if traced and workload.in_process:
                tracer.install(layers.TARGETS)
            try:
                # a traced child runs no probes: child commands stay unscaled both ways
                results, times, factors = execute(
                    workload, round_, tracer if traced else None, scale=workload.in_process
                )
            finally:
                tracer.uninstall()
            elapsed[traced] += sum(t * f for t, f in zip(times, factors))
            problems += workload.check(round_, results)
        ops += len(round_.ops)
    imports = workload.import_times if not workload.in_process else measure_cli_import(work)
    extra = {
        "trace.untraced_ops_per_s": ops / elapsed[False],
        "trace.traced_ops_per_s": ops / elapsed[True],
        "trace.overhead_pct": (elapsed[True] / elapsed[False] - 1) * 100,
        "cli.import_s": stats.median(imports),
    }
    return layers.metric_values(tracer, extra), problems, digests, {}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("loops", "posets", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "matsuki" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'matsuki'}; run from a full checkout", file=sys.stderr)
        return 2
    import matsuki

    if Path(matsuki.__file__).resolve().parent != (SRC / "matsuki").resolve():
        print(f"error: imported matsuki from {matsuki.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    pin_to_one_cpu()
    STATE.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=STATE))
    try:
        workload = workloads.get(args.workload, ROOT)
        cold = ColdState()
        workload.work, workload.cold = work, cold
        if args.trace:
            metrics, problems, digests, notes = traced_run(workload, args.seed, cold, work)
            units = layers.metric_units()
        else:
            metrics, problems, digests, notes = timed_run(workload, args.seed, args.seconds, cold)
            metrics["peak_rss_mb"] = peak_rss_mb(workload)
            units = END_TO_END_UNITS
        check_digests(args.workload, args.seed, digests)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures = [p for p in problems if p is not None]
    attempted, failed = len(problems), len(failures)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "rounds": len(digests),
        "inputs_sha256": digest("".join(digests)),
        "round_sha256": digests,
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "first_failures": failures[:5],
        **notes,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    (STATE / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8"
    )
    env = record["environment"]
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: {len(digests)} rounds")
    print(f"inputs sha256 {record['inputs_sha256']}")
    print(f"python {env['python']}, nproc {env['nproc']}, git {env['git_sha']}")
    print(f"failed_ratio {record['failed_ratio']:.4f} ({failed} of {attempted} ops)")
    for problem in failures[:5]:
        print(f"  failure: {problem}")
    if "distinct_ops" in notes:
        print(f"{notes['distinct_ops']} distinct ops, median of {notes['passes_done']} passes; "
              f"{notes['p90_samples_beyond']} beyond p90")
    for name, unit in units.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
