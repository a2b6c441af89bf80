"""Self-tests of the benchmark harness.

Run from the repository root with ``python3 -m pytest -q bench/tests``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[0:0] = [str(ROOT / "src"), str(ROOT)]

from bench import layers, oracles, run, speed, stats, workloads  # noqa: E402
from bench.tracing import Tracer  # noqa: E402
from bench.workloads import cli, loops, posets  # noqa: E402
from matsuki import loopmatrix, orbitposet, realform  # noqa: E402
from matsuki.rootdata import dominance_leq  # noqa: E402


# -- percentiles --------------------------------------------------------------


def test_percentile_interpolates_between_ranks():
    values = list(range(10, 0, -1))  # unsorted input
    assert stats.percentile(values, 0) == 1
    assert stats.percentile(values, 100) == 10
    assert stats.percentile(values, 50) == pytest.approx(5.5)
    assert stats.percentile(values, 90) == pytest.approx(9.1)
    assert stats.median([4.0]) == 4.0


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile([1, 2], 101)


def test_samples_beyond_p90():
    assert stats.samples_beyond(100, 90) == 10
    assert stats.samples_beyond(101, 90) == 10
    assert stats.samples_beyond(99, 90) == 10
    assert stats.samples_beyond(91, 90) == 9


# -- speed scaling --------------------------------------------------------------


def test_speed_factor_maps_probe_times_to_the_reference():
    ref = speed.REFERENCE_S
    assert speed.factor([ref, ref]) == pytest.approx(1)
    assert speed.factor([2 * ref, 2 * ref]) == pytest.approx(0.5)  # a slow spell: times shrink
    assert speed.factor([ref / 2, ref / 2, ref / 2]) == pytest.approx(2)
    assert speed.probe() > 0


def test_execute_scales_in_process_and_child_operations():
    class InProcess:
        in_process = True

        def prepare(self, op):
            pass

        def run_op(self, op, tracer=None):
            return op * 2

    class InChild(InProcess):
        in_process = False
        reading = (0.25, [speed.REFERENCE_S * 2] * 5)  # a slow spell in the child

    round_ = workloads.Round(0, [1, 2, 3], "")
    results, times, factors = run.execute(InProcess(), round_)
    assert results == [2, 4, 6] and len(times) == 3 and factors == [1.0] * 3
    _, _, factors = run.execute(InProcess(), round_, scale=True)
    assert len(factors) == 3 and all(f > 0 for f in factors)
    _, times, factors = run.execute(InChild(), round_, scale=True)
    assert factors == [pytest.approx(0.5)] * 3
    assert all(t < 0 for t in times)  # the child's probe time is taken off


# -- spans ----------------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_nested_spans():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def inner():
        clock.now += 2

    inner_w = tracer.wrap("m.inner", inner)

    def outer():
        clock.now += 1
        inner_w()
        clock.now += 3
        inner_w()

    tracer.wrap("m.outer", outer)()
    assert tracer.calls("m.outer") == 1
    assert tracer.self_s("m.outer") == pytest.approx(4)
    assert tracer.calls("m.inner") == 2
    assert tracer.self_s("m.inner") == pytest.approx(4)


def test_recursive_spans_count_each_level_once():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def countdown(n):
        clock.now += 1
        if n:
            wrapped(n - 1)

    wrapped = tracer.wrap("m.countdown", countdown)
    wrapped(3)
    assert tracer.calls("m.countdown") == 4
    assert tracer.self_s("m.countdown") == pytest.approx(4)


def test_bucketed_span_is_recorded_twice():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def work(size):
        clock.now += size

    wrapped = tracer.wrap("m.work", work, bucket=lambda size: "big" if size > 5 else "small")
    wrapped(2)
    wrapped(7)
    assert tracer.calls("m.work") == 2
    assert tracer.self_s("m.work|small") == pytest.approx(2)
    assert tracer.self_s("m.work|big") == pytest.approx(7)


def test_rebinding_counts_calls_made_inside_the_package():
    import matsuki
    import matsuki.cli

    t = loopmatrix.LaurentPoly.t_power(1)
    g = loopmatrix.lm_from_rows("gl2_split", [[t, loopmatrix.LP_ONE], [loopmatrix.LP_ZERO, t]])
    original = loopmatrix.determinant
    tracer = Tracer()
    tracer.install([("loopmatrix", "determinant", None), ("loopmatrix", "mat_inverse", None)])
    try:
        assert matsuki.cli.mat_mul is loopmatrix.mat_mul  # not a target: untouched
        assert loopmatrix.determinant is not original
        loopmatrix.mat_inverse(g)
    finally:
        tracer.uninstall()
    # one determinant for the unit check plus one per 1x1 minor
    assert tracer.calls("loopmatrix.mat_inverse") == 1
    assert tracer.calls("loopmatrix.determinant") == 5
    assert loopmatrix.determinant is original


def test_every_traced_function_exists_and_is_rebound_in_importers():
    import matsuki
    import matsuki.cli

    tracer = Tracer()
    tracer.install(layers.CLI_TARGETS)
    try:
        assert getattr(matsuki.cli.k_orbit_invariant, "__wrapped__", None) is not None
        assert getattr(matsuki.dominance_leq, "__wrapped__", None) is not None
        assert getattr(orbitposet.dominance_leq, "__wrapped__", None) is not None
    finally:
        tracer.uninstall()
    assert not hasattr(matsuki.cli.k_orbit_invariant, "__wrapped__")


# -- metric names -----------------------------------------------------------------


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.metric_units()
    assert [w["name"] for w in spec["workloads"]] == ["loops", "posets", "cli"]


def test_metric_values_cover_every_per_layer_metric():
    tracer = Tracer()
    tracer.merge({"loopmatrix.determinant": [3, 0.5], "loopmatrix.splitting_type|spread_0-4": [2, 0.25]})
    extra = {name: 1.0 for name, _ in layers.TRACE_METRICS}
    values = layers.metric_values(tracer, extra)
    assert set(values) == set(layers.metric_units())
    assert values["loopmatrix.determinant.calls"] == 3
    assert values["loopmatrix.splitting_type.self_s.spread_0-4"] == 0.25
    assert values["orbitposet.k_leq.calls"] == 0


# -- digests and cold state -----------------------------------------------------------


@pytest.mark.parametrize("name", ["loops", "posets", "cli"])
def test_inputs_are_a_function_of_the_seed(name, tmp_path):
    def inputs(seed, folder):
        workload = {"loops": loops.LoopsWorkload, "posets": posets.PosetsWorkload, "cli": cli.CliWorkload}[name]
        workload = workload() if name == "loops" else workload(ROOT)
        workload.work = tmp_path / folder
        return run.digest("".join(r.inputs for r in workload.make_rounds(seed, 1)))

    assert inputs(5, "a") == inputs(5, "b")
    assert inputs(5, "c") != inputs(6, "d")


def test_round_count_follows_seconds_in_whole_cycles():
    workload = posets.PosetsWorkload(ROOT)
    cycle = workload.cycle
    assert workloads.round_count(workload, 0) % cycle == 0
    assert workloads.round_count(workload, 0) * workload.ops_per_round >= workload.min_ops
    long = workloads.round_count(workload, 100 * workload.passes * workload.round_s)
    assert long % cycle == 0 and long >= 100


def test_posets_seeds_differ_only_in_order_over_a_cycle():
    workload = posets.PosetsWorkload(ROOT)

    def queries(seed):
        ops = [op for r in workload.make_rounds(seed, workload.cycle) for op in r.ops]
        return sorted(ops, key=repr)

    assert queries(3) == queries(4)
    for r in workload.make_rounds(3, workload.cycle):
        for form in realform.catalog_names():
            heights = [op[2] for op in r.ops if op[1] == form and op[0] != "reslice"]
            assert len(set(heights)) == len(heights) or form in posets.HEIGHTS


def test_loops_rounds_hold_every_slot_once():
    workload = loops.LoopsWorkload()
    rounds = workload.make_rounds(2, 2)
    assert [len(r.ops) for r in rounds] == [workload.ops_per_round] * 2
    slots = {(c.form, c.kind) for r in rounds for c in r.ops}
    assert len(slots) == workload.ops_per_round  # every slot once per round


def test_digest_registry_refuses_a_changed_digest(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "STATE", tmp_path)
    run.check_digests("loops", 1, ["aa", "bb"])
    run.check_digests("loops", 1, ["aa"])
    with pytest.raises(run.BenchError):
        run.check_digests("loops", 1, ["aa", "cc"])


def test_cold_state_empties_the_caches():
    spec = realform.catalog("gl2_split").spec
    cold = run.ColdState()
    orbitposet.enumerate_orbits(spec, 4)
    assert orbitposet.enumerate_orbits.cache_info().currsize > 0
    cold.reset()
    assert orbitposet.enumerate_orbits.cache_info().currsize == 0


# -- oracles --------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["gl3_split", "sl3_split", "su21", "pgl2_so21", "gl1_split"])
def test_dominance_oracle_agrees_with_the_package(name):
    datum = realform.catalog(name).datum
    lattice = oracles.Lattice(datum, realform.catalog(name).theta)
    from itertools import product

    vectors = list(product(range(-2, 3), repeat=datum.rank))
    for a in vectors:
        for b in vectors[::3]:
            assert lattice.leq(a, b) == dominance_leq(datum, a, b), (a, b)


def test_closure_check_finds_a_missing_edge():
    leq = lambda a, b: a <= b  # noqa: E731  a chain 0 < 1 < 2
    elements = [0, 1, 2]
    assert oracles.closure_mismatch(elements, [(0, 1), (1, 2)], leq) is None
    assert oracles.closure_mismatch(elements, [(0, 1)], leq) == (0, 2)
    assert oracles.closure_mismatch(elements, [(0, 1), (1, 2), (2, 0)], leq) == (1, 0)


def test_type_a_dominance():
    assert oracles.type_a_leq((0, 0), (1, -1))
    assert not oracles.type_a_leq((1, -1), (0, 0))
    assert not oracles.type_a_leq((1, 0), (1, -1))


# -- the command ------------------------------------------------------------------------


def test_run_refuses_a_directory_without_the_package(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "loops", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
