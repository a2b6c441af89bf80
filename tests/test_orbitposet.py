"""Orbit enumeration, the two orders, duality, Hasse edges and cores."""

import copy
import gc
import random
import tracemalloc
from fractions import Fraction
from itertools import accumulate, product

import pytest

from matsuki import orbitposet
from matsuki.cli import main
from matsuki.errors import ValidationError
from matsuki.orbitposet import (
    CANDIDATE_BUDGET,
    CoreData,
    build_poset_slice,
    component_count,
    core_data,
    enumerate_orbits,
    k_leq,
    matsuki_dual,
    primitive_relations,
    r_leq,
    real_step_leq,
)
from matsuki.fundgroup import image_index, in_image_semigroup
from matsuki.laws import hasse_closure, real_dominant_up_to
from matsuki.realform import (
    InvolutionSpec,
    catalog,
    catalog_names,
    step_basis,
    validate_involution,
)
from matsuki.rootdata import (
    RootDatum,
    dot,
    gl_datum,
    height,
    identity_matrix,
    integer_solver,
    is_dominant,
    monoid_order,
    simple_coroots,
    vec_add,
    vec_neg,
    vec_scale,
)
from matsuki.textio import format_involution, parse_involution

from oracles import free_monoid_leq, real_coweight_coordinates, real_form_specs, sweep_hasse

ALL_NAMES = list(catalog_names())


def skewed_torus_spec():
    """Rootless rank-2 torus whose fixed lattice has the skewed basis (2, 1)."""
    datum = RootDatum(rank=2, roots=(), coroots=(), simple_indices=(), name="torus2")
    return InvolutionSpec(datum=datum, theta=((1, 0), (1, -1)), name="skewed")


def split_gl_spec(n):
    """Split gl_n: the identity involution of ``gl_datum(n)``."""
    return InvolutionSpec(datum=gl_datum(n), theta=identity_matrix(n), name=f"gl{n}_identity")


def steep_torus_spec():
    """Rootless rank-3 torus whose fixed lattice has the basis (1, 3, 0), (0, 0, 1)
    and whose loop image is twice it: class period 2, and along (1, 3, 0) the
    box leaves ranges of H // 3 * 2 + 1 values, a single one below height 3."""
    datum = RootDatum(rank=3, roots=(), coroots=(), simple_indices=(), name="torus3")
    return InvolutionSpec(datum=datum, theta=((1, 0, 0), (6, -1, 0), (0, 0, 1)), name="steep")


def two_period_spec():
    """Split gl_2 with two class rows planted in its image quotient, a + b
    even and a - b divisible by 3: class periods 2 and 3 along the last
    coefficient, whose period is their lcm, 6.  No involution has them (2 *
    lambda lies in every image, so every period divides 2); they show a
    period taken as the largest one instead."""
    spec = InvolutionSpec(datum=gl_datum(2), theta=identity_matrix(2), name="gl2_periods_2_and_3")
    gens, group, _ = spec.image_lattice
    vars(spec)["image_lattice"] = (gens, group, (((1, 1), 2), ((1, -1), 3)))
    return spec


# ---------------------------------------------------------------------------
# enumeration


def test_enumerate_chain_for_so21():
    spec = catalog("pgl2_so21").spec
    assert enumerate_orbits(spec, 8) == ((0,), (2,), (4,), (6,), (8,))
    assert enumerate_orbits(spec, 20) == tuple((2 * n,) for n in range(11))


def test_enumerate_compact_is_single_point():
    spec = catalog("sl2_compact").spec
    assert enumerate_orbits(spec, 100) == ((0,),)


def test_enumerate_sl2_split():
    spec = catalog("sl2_split").spec
    assert enumerate_orbits(spec, 4) == ((0,), (1,), (2,))


def test_enumerate_always_contains_zero():
    for name in ALL_NAMES:
        spec = catalog(name).spec
        zero = (0,) * spec.datum.rank
        assert zero in enumerate_orbits(spec, 0)


def test_enumerate_matches_direct_filter():
    # heights 0-2 meet the empty and single-point projections; 13 runs the
    # loop-class arithmetic along longer parity chains; gl4 and gl5 project
    # through three and four eliminations; the skewed torus and sl3_split
    # have no class rows; the steep torus has last ranges shorter than its
    # class period, and the planted gl2 a period of 6 from periods 2 and 3
    cases = [(catalog(name).spec, (0, 1, 2, 7, 9, 13, 16)) for name in ALL_NAMES]
    cases += [(skewed_torus_spec(), (0, 1, 2, 7, 9, 13, 16))]
    cases += [(split_gl_spec(n), range(5)) for n in (4, 5)]
    cases += [(steep_torus_spec(), range(17)), (two_period_spec(), range(17))]
    for spec, bounds in cases:
        for bound in bounds:
            expected = sorted(
                lam for lam in real_dominant_up_to(spec, bound) if in_image_semigroup(spec, lam)
            )
            assert list(enumerate_orbits(spec, bound)) == expected, (spec.name, bound)


def test_elimination_rounds_each_row_down_and_keeps_the_least_offset():
    rows = [
        ((2, 1), 3),  # with -c1 >= 0: 2 c0 + 3 >= 0, so c0 + 1 >= 0 on integers
        ((0, -1), 0),
        ((-1, -1), 4),  # with the first: c0 + 7 >= 0, looser
        ((1, 0), 5),  # free of c1 and looser still
        ((-1, 0), 2),
        ((0, 1), 0),  # with -c1 >= 0: 0 >= 0, dropped
    ]
    assert sorted(orbitposet._eliminate(rows, 1)) == [((-1,), 2), ((1,), 1)]


@pytest.mark.parametrize(
    "name, bound, ratio",
    [("gl3_split", 7, 1.25), ("gl3_split", 40, 1.25), ("sl3_split", 12, 1.25), ("gl5", 4, 2)],
)
def test_enumeration_visits_few_prefixes_beyond_its_output(name, bound, ratio, monkeypatch, cleared_caches):
    spec = split_gl_spec(5) if name == "gl5" else catalog(name).spec
    last = len(spec.fixed_basis) - 1
    visited = []
    extend = orbitposet._extend

    def counting(rows, walk):
        for prefix, r in extend(rows, walk):
            if len(prefix) == last:
                visited.append(prefix)
            yield prefix, r

    monkeypatch.setattr(orbitposet, "_extend", counting)
    leading = {real_coweight_coordinates(spec, lam)[:last] for lam in enumerate_orbits(spec, bound)}
    assert len(visited) == len(set(visited)) <= ratio * len(leading)


class IndexBuilt(Exception):
    """Raised where the walk ends and the index would be built."""


def test_a_refusal_walks_at_most_one_budget_per_level(monkeypatch, cleared_caches):
    calls = []  # the length of each prefix whose range the walk computes
    extend = orbitposet._extend

    def counting(rows, walk):
        for prefix, r in extend(rows, walk):
            calls.append(len(prefix))
            yield prefix, r

    def no_index(spec):
        raise IndexBuilt

    monkeypatch.setattr(orbitposet, "_extend", counting)
    monkeypatch.setattr(InvolutionSpec, "image_lattice", property(no_index))
    # admitted heights walk every level and reach the index
    for name, bound in [("gl2_split", 400), ("gl3_split", 60), ("sl3_split", 160), ("su21", 1001), ("sl3_split", 3000)]:
        with pytest.raises(IndexBuilt):
            enumerate_orbits(catalog(name).spec, bound)
    refused = [("gl3_split", 400, 3), ("gl3_split", 1000, 3), ("gl3_split", 1060, 3), ("sl3_split", 10**8, 1)]
    refused += [("sl2_split", 4_999_999, 1), ("gl2_split", 2000, 2)]
    for name, bound, level in refused:
        spec = catalog(name).spec
        levels = len(spec.fixed_basis)
        calls[:] = [0]  # the first range, of the empty prefix, comes from the offsets alone
        with pytest.raises(ValidationError, match=f"over {CANDIDATE_BUDGET} candidates for coefficient {level} of {levels}$"):
            enumerate_orbits(spec, bound)
        assert len(calls) <= 1 + (levels - 1) * CANDIDATE_BUDGET, (name, bound)
        assert max(calls) == level - 1, (name, bound)


def test_candidate_budget_is_decided_before_any_index_is_built(cleared_caches):
    # sl2_split's one coefficient has 2.5e6 candidates at once; gl3_split's
    # second has 985,536, and its third passes the budget at the 3,739th of them,
    # so the walk holds 2,121 second-level prefixes and 3,739 third-level ones
    for name, bound, level, most in [("sl2_split", 4_999_999, "1 of 1", 2**20), ("gl3_split", 1060, "3 of 3", 2**22)]:
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match=f"leaves over {CANDIDATE_BUDGET} candidates for coefficient {level}$"):
                enumerate_orbits(catalog(name).spec, bound)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < most, name  # 10**6 index tuples would take over 50 MB
    assert CANDIDATE_BUDGET == 10**6
    # gl2_split at H = 400, 241,001 candidates, is the largest slice the roadmap's commands ask for
    assert len(enumerate_orbits(catalog("gl2_split").spec, 400)) == 120_801


def box_scan_slices(spec, top):
    """The slices at heights 0..top from the box scan of ``real_dominant_up_to``
    and the membership test, with no walk: an index joins at the least height
    whose box and height bound both hold it."""
    first = [[] for _ in range(top + 1)]
    for v in real_dominant_up_to(spec, top):
        if in_image_semigroup(spec, v):
            first[max(height(spec.datum, v), *map(abs, v))].append(v)
    return list(accumulate(first))


def box_scan_counts(spec, top):
    """Orbit counts at heights 0..top from ``box_scan_slices``."""
    return [len(elements) for elements in box_scan_slices(spec, top)]


def lagrange(points, x):
    """The value at x of the polynomial through the points, exactly."""
    total = Fraction(0)
    for xi, yi in points:
        term = Fraction(yi)
        for xj, _ in points:
            if xj != xi:
                term *= Fraction(x - xj, xi - xj)
        total += term
    return total


@pytest.mark.parametrize(
    "name, period, degree, target, count",
    [("sl3_split", 6, 2, 3000, 375_751), ("gl3_split", 4, 3, 108, 139_384)],
    ids=["sl3_split-3000", "gl3_split-108"],
)
def test_orbit_counts_at_large_heights_follow_the_box_scan(name, period, degree, target, count, cleared_caches):
    # the slice at H is H times one rational polytope, cut to a sublattice
    # coset, so its size is a quasi-polynomial in H (Ehrhart); each residue is
    # fitted through degree + 1 scanned counts and checked on one more
    spec = catalog(name).spec
    top = period * (degree + 2) - 1
    counts = box_scan_counts(spec, top)
    assert [len(enumerate_orbits(spec, h)) for h in range(top + 1)] == counts
    for residue in range(period):
        *fit, check = [(h, counts[h]) for h in range(residue, top + 1, period)]
        assert lagrange(fit, check[0]) == check[1], (name, residue)
    fit = [(h, counts[h]) for h in range(target % period, top + 1, period)][: degree + 1]
    assert lagrange(fit, target) == count
    assert len(enumerate_orbits(spec, target)) == count


def quasi_polynomial(counts, start, period, degree):
    """The quasi-polynomial through counts[start:]: per residue mod period, the
    polynomial of the degree through its first degree + 1 counts, checked on
    every later one."""
    fits = {}
    for residue in range(period):
        points = [(h, counts[h]) for h in range(start, len(counts)) if h % period == residue]
        fits[residue], checks = points[: degree + 1], points[degree + 1:]
        assert checks and all(lagrange(fits[residue], h) == count for h, count in checks), (residue, points)
    return lambda h: lagrange(fits[h % period], h)


# name: orbit counts (period, degree), component counts (from, period, degree),
# and two heights past both fits, each a slice that costs under 0.1 s; the
# orbit degree is len(spec.fixed_basis), and components grow along the
# centre of the gl entries only
LARGE_HEIGHTS = {
    "sl2_split": ((2, 1), (0, 1, 0), (1000, 1001)),
    "sl2_compact": ((1, 0), (0, 1, 0), (1000, 1001)),
    "pgl2_so21": ((2, 1), (0, 1, 0), (1000, 1001)),
    "sl2C_as_real": ((4, 1), (0, 1, 0), (1002, 1003)),
    "sl3_split": ((6, 2), (0, 1, 0), (300, 301)),
    "su11": ((2, 1), (0, 1, 0), (1000, 1001)),
    "su21": ((4, 1), (0, 1, 0), (1002, 1003)),
    "gl1_split": ((2, 1), (0, 2, 1), (1000, 1001)),
    "gl2_split": ((2, 2), (0, 1, 1), (100, 101)),
    "gl3_split": ((4, 3), (2, 2, 1), (40, 41)),
}


@pytest.mark.parametrize("name", LARGE_HEIGHTS)
def test_orbit_and_component_counts_at_large_heights_follow_their_fits(name, cleared_caches):
    # orbit counts are fitted from the box scan and component counts from the
    # all-pairs union-find on its slices, so neither fit runs the code checked
    spec = catalog(name).spec
    (period, degree), (start, comp_period, comp_degree), targets = LARGE_HEIGHTS[name]
    assert degree == len(spec.fixed_basis)
    orbits = quasi_polynomial(box_scan_counts(spec, period * (degree + 2) - 1), 0, period, degree)
    slices = box_scan_slices(spec, start + comp_period * (comp_degree + 3) - 1)
    components = quasi_polynomial([comparability_components(spec, s) for s in slices], start, comp_period, comp_degree)
    for h in targets:
        elements = enumerate_orbits(spec, h)
        assert (len(elements), component_count(spec, elements)) == (orbits(h), components(h)), (name, h)


@pytest.mark.parametrize(
    "bound, warm",
    [(2.5, False), (4.0, True), (4.0, False), ("3", False), (None, False)],
    ids=["2.5", "4.0-after-4", "4.0-cold", "str", "None"],
)
def test_enumerate_rejects_non_integral_height(bound, warm, cleared_caches):
    # a warm cache entry for the integer 4 must not answer the float 4.0
    spec = catalog("sl3_split").spec
    if warm:
        enumerate_orbits(spec, 4)
    with pytest.raises(ValidationError, match="height bound must be an integer"):
        enumerate_orbits(spec, bound)
    with pytest.raises(ValidationError, match="height bound must be an integer"):
        build_poset_slice(spec, bound)


# ---------------------------------------------------------------------------
# the two orders


def test_order_examples():
    so21 = catalog("pgl2_so21").spec
    assert k_leq(so21, (0,), (2,))
    assert r_leq(so21, (2,), (0,))
    assert k_leq(so21, (4,), (4,)) and r_leq(so21, (4,), (4,))
    sl3 = catalog("sl3_split").spec
    assert not k_leq(sl3, (1, 1), (1, 0))
    split = catalog("sl2_split").spec
    assert not r_leq(split, (0,), (1,))


def test_zero_is_minimal_in_its_component():
    for name in ALL_NAMES:
        spec = catalog(name).spec
        zero = (0,) * spec.datum.rank
        for a in enumerate_orbits(spec, 10):
            if a != zero:
                assert not k_leq(spec, a, zero), (name, a)


def catalog_solvers():
    """(entry, solver, columns) for the coroot and step solvers of every entry and the solver of its fixed basis."""
    for name in ALL_NAMES:
        spec = catalog(name).spec
        yield name, spec.datum.coroot_solver, simple_coroots(spec.datum)
        yield name, spec.step_solver, step_basis(spec)
        yield name, integer_solver(spec.fixed_basis, dim=spec.datum.rank), spec.fixed_basis


def order_mismatches(leq, solver, columns, rank, seed=0):
    """Pairs on which a compiled order disagrees with ``free_monoid_leq``:
    random pairs in a box, and pairs a step apart along a random integer
    combination of the solver's columns, which meet every consistency row."""
    rng = random.Random(seed)

    def box():
        return tuple(rng.randint(-6, 6) for _ in range(rank))

    pairs = [(box(), box()) for _ in range(300)]
    for _ in range(300):
        lower, coeffs = box(), [rng.randint(-3, 3) for _ in columns]
        step = tuple(sum(c * col[i] for c, col in zip(coeffs, columns)) for i in range(rank))
        pairs.append((lower, vec_add(lower, step)))
    return [pair for pair in pairs if leq(*pair) != free_monoid_leq(solver, *pair)]


def test_compiled_orders_agree_with_the_free_monoid_on_every_catalog_solver():
    dens = set()
    for name, solver, columns in catalog_solvers():
        rank = catalog(name).spec.datum.rank
        assert order_mismatches(monoid_order(solver, rank), solver, columns, rank) == [], name
        dens.add(solver[0])
    assert max(dens) > 1  # the coroot and step solvers of pgl2_so21 have den 2
    for name in ALL_NAMES:
        spec = catalog(name).spec
        for leq, solver, columns in ((spec.datum.coroot_order, spec.datum.coroot_solver, simple_coroots(spec.datum)),
                                     (spec.step_order, spec.step_solver, step_basis(spec))):
            assert order_mismatches(leq, solver, columns, spec.datum.rank, seed=1) == [], name


def _swapped_sides(solver, rank):
    """A mutant ``monoid_order``: the test of the last solve row with its sides
    swapped, U >= L read as L >= U, by compiling the row negated."""
    den, rows, consistency = solver
    return monoid_order((den, (*rows[:-1], vec_neg(rows[-1])), consistency), rank)


def test_the_comparison_catches_an_order_with_one_test_swapped():
    for name, solver, columns in catalog_solvers():
        if solver[1]:  # an order with no solve row has no side to swap
            rank = catalog(name).spec.datum.rank
            assert order_mismatches(_swapped_sides(solver, rank), solver, columns, rank), name


def test_order_comparisons_leave_the_caches_unchanged(package_caches):
    # the orders are solves over per-structure data: comparing coweights must
    # not grow any cache, however many pairs are compared
    spec = catalog("gl3_split").spec
    reals = list(product(range(-3, 4), repeat=3))
    pairs = random.Random(0).sample(list(product(reals, reals)), 10_000)
    orders = (k_leq, r_leq, real_step_leq)
    for leq in orders:
        leq(spec, *pairs[0])
    before = sum(cache.cache_info().currsize for cache in package_caches)
    for a, b in pairs:
        for leq in orders:
            leq(spec, a, b)
    assert sum(cache.cache_info().currsize for cache in package_caches) == before


def test_enumeration_cache_is_bounded(cleared_caches, capsys):
    spec = catalog("sl2_split").spec
    for h in range(200):
        enumerate_orbits(spec, h)
    assert enumerate_orbits.cache_info().currsize <= 1
    build_poset_slice(spec, 12, "K")
    hits = enumerate_orbits.cache_info().hits
    build_poset_slice(spec, 12, "R")  # a reslice
    assert enumerate_orbits.cache_info().hits == hits + 1
    enumerate_orbits.cache_clear()
    assert main(["check", "pgl2_so21"]) == 0  # the duality and Hasse suites share height 10
    assert enumerate_orbits.cache_info()[:2] == (1, 2)


def _traced_growth(run):
    """Bytes that ``run()`` allocates and leaves alive, cycles collected."""
    tracemalloc.start()
    try:
        run()
        gc.collect()
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def test_distinct_involutions_leave_no_state_behind(cleared_caches):
    # what is derived from a datum or an involution lives on it and goes with it
    text = format_involution(catalog("gl2_split").spec)
    texts = [text.replace("name: gl2_split", f"name: file{i}") for i in range(200)]
    for t in texts[:50]:
        build_poset_slice(parse_involution(t), 3)
    grown = _traced_growth(lambda: [build_poset_slice(parse_involution(t), 3) for t in texts[50:]])
    assert grown < 64 * 1024  # 150 involutions held about 500 KiB when they were cached by value


def test_a_small_slice_releases_a_large_one(cleared_caches):
    spec = catalog("sl3_split").spec

    def large_then_small():
        assert len(enumerate_orbits(spec, 600)) == 15_151
        enumerate_orbits(spec, 0)

    assert _traced_growth(large_then_small) < 256 * 1024  # the large slice alone is over 900 KiB


def test_orders_reject_wrong_length():
    spec = catalog("gl2_split").spec
    with pytest.raises(ValidationError, match="length"):
        k_leq(spec, (0, 0, 5), (1, -1))
    with pytest.raises(ValidationError, match="length"):
        r_leq(spec, (1, -1), (0, 0, 5))
    with pytest.raises(ValidationError, match="must both have length rank=2"):
        real_step_leq(spec, (1, 2, 3), (1, 1))


# ---------------------------------------------------------------------------
# dual orbits and cores


def test_matsuki_dual_fixes_index():
    so21 = catalog("pgl2_so21").spec
    dual, core = matsuki_dual(so21, (2,))
    assert dual == (2,)
    assert core.flag_dimension == 1
    assert core.parabolic_simple_roots == ()


def test_core_examples():
    sl3 = catalog("sl3_split").spec
    core = core_data(sl3, (1, 1))
    assert core.parabolic_simple_roots == ()
    assert core.flag_dimension == 3
    split = catalog("sl2_split").spec
    assert core_data(split, (1,)).flag_dimension == 1
    zero_core = core_data(sl3, (0, 0))
    assert zero_core.parabolic_simple_roots == (0, 1)
    assert zero_core.flag_dimension == 0


def test_flag_dimension_zero_iff_central():
    for name in ALL_NAMES:
        spec = catalog(name).spec
        for lam in enumerate_orbits(spec, 8):
            core = core_data(spec, lam)
            central = all(
                dot(spec.datum.roots[i], lam) == 0
                for i in range(len(spec.datum.roots))
            )
            assert (core.flag_dimension == 0) == central, (name, lam)


def core_by_definition(spec, coweight):
    """``core_data`` in two steps: the membership test, its refusals in order
    (length, dominance, theta-fixed) and then the loop class
    (``in_image_semigroup``), and then the pairing of every positive root."""
    datum = spec.datum
    if not is_dominant(datum, coweight):  # refuses a length other than rank first
        raise ValidationError(f"{coweight} is not dominant")
    if spec.apply(coweight) != coweight:
        raise ValidationError(f"{coweight} is not theta-fixed")
    if not in_image_semigroup(spec, coweight):
        raise ValidationError(f"{coweight} is not in the image sub-semigroup")
    pairings = {i: dot(datum.roots[i], coweight) for i in datum.positive_root_indices}
    parabolic = tuple(i for i in datum.simple_indices if pairings[i] == 0)
    return CoreData(coweight, parabolic, sum(p > 0 for p in pairings.values()))


def outcome(function, *args):
    """The result of a call, or the type and text of what it raised."""
    try:
        return function(*args)
    except ValidationError as exc:
        return type(exc), str(exc)


CORE_REFUSALS = ("does not have length", "is not dominant", "is not theta-fixed", "is not in the image sub-semigroup")


@pytest.mark.parametrize("spec", real_form_specs(), ids=lambda spec: spec.name)
def test_core_data_agrees_with_its_two_step_definition(spec):
    # the orbit indices of heights 0-24, a box around zero (of radius 2 from
    # rank 4 on) and two wrong lengths, on the catalog and the real forms of
    # gl2-gl5, B2, C2, G2, B3 and C3
    spec, name = copy.deepcopy(spec), spec.name
    rank = spec.datum.rank
    misfits = [(0,) * (rank + 1), (1,) * (rank - 1)]
    radius = 4 if rank <= 3 else 2
    seen = set()
    for v in (*enumerate_orbits(spec, 24), *product(range(-radius, radius + 1), repeat=rank), *misfits):
        want = outcome(core_by_definition, spec, v)
        assert outcome(core_data, spec, v) == want, (name, v)
        seen.add(next(r for r in CORE_REFUSALS if r in want[1]) if isinstance(want, tuple) else "member")
    length, dominant, real, image = CORE_REFUSALS
    assert seen >= {"member", length} | ({dominant} if spec.datum.roots else set()), seen
    assert (real in seen) == (spec.theta != identity_matrix(rank)), seen
    assert (image in seen) == (image_index(spec) > 1), seen


def test_core_rejects_non_indices():
    so21 = catalog("pgl2_so21").spec
    with pytest.raises(ValidationError, match="image"):
        core_data(so21, (1,))
    with pytest.raises(ValidationError, match="dominant"):
        matsuki_dual(so21, (-2,))


# ---------------------------------------------------------------------------
# step order on the fixed lattice


def test_real_step_examples():
    so21 = catalog("pgl2_so21").spec
    assert real_step_leq(so21, (0,), (2,))
    assert real_step_leq(so21, (2,), (2,))
    swap = catalog("sl2C_as_real").spec
    assert real_step_leq(swap, (0, 0), (1, 1))
    assert not real_step_leq(so21, (0,), (1,))


def test_real_step_rejects_non_real():
    compact = catalog("sl2_compact").spec
    with pytest.raises(ValidationError, match="theta-fixed"):
        real_step_leq(compact, (0,), (1,))


def test_a_split_form_compares_real_steps_with_its_step_order():
    for name in ALL_NAMES:
        spec = catalog(name).spec
        assert (spec.real_step_order is spec.step_order) == (spec.theta == identity_matrix(spec.datum.rank)), name


def real_step_refusal_problems(spec):
    """How ``real_step_leq`` strays from its refusal order: a length other than
    rank first, then lower if theta moves it, then upper."""
    rank, problems = spec.datum.rank, []
    box = list(product(range(-2, 3), repeat=rank))
    real = next((v for v in box if any(v) and spec.apply(v) == v), None)  # none on an anisotropic form
    moved = [v for v in box if spec.apply(v) != v][:2]
    cases = [(((0,) * (rank + 1), moved[0]), f"{(0,) * (rank + 1)} and {moved[0]} must both have length rank={rank}"),
             ((moved[0], moved[1]), f"{moved[0]} is not theta-fixed"),
             ((moved[1], moved[0]), f"{moved[1]} is not theta-fixed")]
    for v in filter(None, (real, (0,) * rank)):
        cases += [((v, moved[1]), f"{moved[1]} is not theta-fixed"), ((moved[0], v), f"{moved[0]} is not theta-fixed")]
        if outcome(real_step_leq, spec, v, v) is not True:
            problems.append(f"{v} <= {v} is not True")
    for pair, text in cases:
        if (got := outcome(real_step_leq, spec, *pair)) != (ValidationError, text):
            problems.append(f"{pair}: {got}")
    return problems


NON_SPLIT = [name for name in ALL_NAMES if catalog(name).spec.theta != identity_matrix(catalog(name).spec.datum.rank)]


@pytest.mark.parametrize("name", NON_SPLIT)
def test_real_step_refuses_length_then_lower_then_upper(name):
    assert real_step_refusal_problems(catalog(name).spec) == []


def _upper_unchecked(spec):
    """A mutant ``real_step_order`` that skips the theta-fixed check on upper."""
    leq, moving = spec.step_order, spec.moving_rows

    def real_leq(lower, upper):
        result = leq(lower, upper)
        if any(dot(row, lower) for row in moving):
            raise ValidationError(f"{lower} is not theta-fixed")
        return result

    return real_leq


@pytest.mark.parametrize("name", NON_SPLIT)
def test_the_refusal_check_catches_an_unchecked_upper(name):
    spec = copy.deepcopy(catalog(name).spec)
    spec.__dict__["real_step_order"] = _upper_unchecked(spec)  # where the cached property keeps its value
    assert real_step_refusal_problems(spec)


# ---------------------------------------------------------------------------
# Hasse diagrams


def test_chain_edges_for_so21():
    spec = catalog("pgl2_so21").spec
    elements = enumerate_orbits(spec, 8)
    edges = primitive_relations(spec, elements)
    assert edges == (((0,), (2,)), ((2,), (4,)), ((4,), (6,)), ((6,), (8,)))


def test_single_element_slice_has_no_edges():
    spec = catalog("sl2_compact").spec
    assert primitive_relations(spec, enumerate_orbits(spec, 4)) == ()


def brute_force_hasse(spec, elements):
    """Covers in the unbounded orbit-index sub-semigroup: for each comparable
    pair, walk a + sum n_i alpha_i^vee for 0 <= n <= the coordinates of b - a
    and test every point for membership.  Asserts the convexity law on the
    way: every orbit index found between two elements is one of them."""
    datum = spec.datum
    simples = simple_coroots(datum)
    inside = set(elements)
    edges = []
    for a in elements:
        for b in elements:
            if a == b or not k_leq(spec, a, b):
                continue
            # every simple coroot has height 2, so no coordinate exceeds span
            span = (height(datum, b) - height(datum, a)) // 2
            box = {}
            for n in product(range(span + 1), repeat=len(simples)):
                vec = a
                for c, root in zip(n, simples):
                    vec = vec_add(vec, vec_scale(c, root))
                box[vec] = n
            steps = box[b]
            between = [
                vec
                for vec, n in box.items()
                if vec not in (a, b)
                and all(x <= y for x, y in zip(n, steps))
                and is_dominant(datum, vec)
                and spec.is_real(vec)
                and in_image_semigroup(spec, vec)
            ]
            assert inside.issuperset(between), (spec.name, a, b, between)
            if not between:
                edges.append((a, b))
    return tuple(sorted(edges))


@pytest.mark.parametrize("name", ALL_NAMES)
def test_hasse_against_semigroup_walk_on_every_entry(name):
    spec = catalog(name).spec
    elements = enumerate_orbits(spec, 8 if name == "gl3_split" else 12)
    assert primitive_relations(spec, elements) == brute_force_hasse(spec, elements)


def test_hasse_is_taken_within_the_given_elements():
    # (4,) covers (2,) in the sub-semigroup but lies outside the input, a
    # convex down-set of the slice: no edge leaves the given elements
    spec = catalog("pgl2_so21").spec
    assert primitive_relations(spec, ((0,), (2,))) == (((0,), (2,)),)


def test_coroot_classes_refuse_an_element_of_the_wrong_length():
    spec = catalog("sl3_split").spec
    for count in (primitive_relations, component_count):
        with pytest.raises(ValidationError, match=r"^\(1, 2, 3\) does not have length rank=2$"):
            count(spec, ((0, 0), (1, 2, 3)))


@pytest.mark.parametrize("name, bound", [("gl2_split", 40), ("sl3_split", 60), ("gl3_split", 16)])
def test_hasse_characterization_at_larger_heights(name, bound):
    spec = catalog(name).spec
    elements = enumerate_orbits(spec, bound)
    above = {a: {b for b in elements if k_leq(spec, a, b)} for a in elements}
    below = {b: {a for a in elements if b in above[a]} for b in elements}
    for a, b in primitive_relations(spec, elements):
        assert above[a] & below[b] == {a, b}, (name, a, b)  # nothing strictly inside
    assert hasse_closure(spec, elements) is None


def test_sl3_hasse_against_interval_oracle():
    spec = catalog("sl3_split").spec
    elements = enumerate_orbits(spec, 6)
    assert primitive_relations(spec, elements) == brute_force_hasse(spec, elements)


def test_gl2_hasse_against_interval_oracle():
    spec = catalog("gl2_split").spec
    elements = enumerate_orbits(spec, 4)
    assert primitive_relations(spec, elements) == brute_force_hasse(spec, elements)


# ---------------------------------------------------------------------------
# slices


@pytest.mark.parametrize("name", ALL_NAMES)
def test_a_slice_agrees_with_the_public_edges_and_count(name, cleared_caches):
    # the slice's edges are the class sweep's, and its count that of the
    # public function, at every height up to 30
    spec = catalog(name).spec
    for bound in range(31):
        elements = enumerate_orbits(spec, bound)
        edges, count = sweep_hasse(spec, elements), component_count(spec, elements)
        for order, want in (("K", edges), ("R", tuple(sorted((b, a) for a, b in edges)))):
            s = build_poset_slice(spec, bound, order)
            assert (s.elements, s.hasse_edges, s.component_count) == (elements, want, count), (name, bound, order)


def test_a_cold_slice_groups_its_coroot_classes_once(monkeypatch, cleared_caches):
    # the edges and the count are each taken once, from the slice's elements
    calls = []
    for name in ("primitive_relations", "component_count"):
        monkeypatch.setattr(orbitposet, name, lambda spec, elements, f=getattr(orbitposet, name), name=name: (
            calls.append((name, len(elements))) or f(spec, elements)))
    for name in ALL_NAMES:
        for order in "KR":
            calls.clear()
            n = len(build_poset_slice(catalog(name).spec, 12, order).elements)
            assert calls == [("primitive_relations", n), ("component_count", n)], (name, order)


@pytest.mark.parametrize("name, bound, counts", [
    ("sl2_split", 8000, (4001, 4000, 1)), ("sl3_split", 400, (6767, 13267, 1)), ("gl3_split", 60, (25056, 43719, 181)),
])
def test_large_slices_keep_the_counts_of_the_class_sweep(name, bound, counts, cleared_caches):
    # elements, edges and components, read once from the class sweep that the
    # difference rule replaced; the sweep took 8 to 20 s on each of these
    slice_ = build_poset_slice(catalog(name).spec, bound)
    assert (len(slice_.elements), len(slice_.hasse_edges), slice_.component_count) == counts


def test_poset_slice_report_fields():
    spec = catalog("pgl2_so21").spec
    s = build_poset_slice(spec, 8, "K")
    assert s.spec_name == "pgl2_so21"
    assert s.height_bound == 8
    assert s.elements == enumerate_orbits(spec, 8)
    assert s.component_count == 1
    assert s.image_index == 2
    r = build_poset_slice(spec, 8, "R")
    assert r.hasse_edges == tuple(sorted((b, a) for a, b in s.hasse_edges))


def test_gl1_slice_is_discrete():
    spec = catalog("gl1_split").spec
    s = build_poset_slice(spec, 4, "K")
    assert s.elements == ((-4,), (-2,), (0,), (2,), (4,))
    assert s.hasse_edges == ()
    assert s.component_count == 5


def comparability_components(spec, elements):
    """All-pairs union-find over the comparability graph: the oracle for
    component_count."""
    parent = list(range(len(elements)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, a in enumerate(elements):
        for j in range(i + 1, len(elements)):
            if k_leq(spec, a, elements[j]) or k_leq(spec, elements[j], a):
                parent[find(i)] = find(j)
    return len({find(i) for i in range(len(elements))})


def test_component_count_matches_union_find_oracle():
    for name in ALL_NAMES:
        spec = catalog(name).spec
        assert component_count(spec, ()) == comparability_components(spec, ()) == 0, name
        for bound in (0, 3, 8, 13, 20):
            elements = enumerate_orbits(spec, bound)
            assert component_count(spec, elements) == comparability_components(spec, elements), (name, bound)


def transitive_reduction(spec, elements):
    """Hasse edges of k_leq on exactly the given elements: the oracle for
    primitive_relations on sets that need not be convex."""
    above = {a: {b for b in elements if b != a and k_leq(spec, a, b)} for a in elements}
    below = {b: {a for a in elements if b in above[a]} for b in elements}
    return tuple(sorted((a, b) for a in elements for b in above[a] if not above[a] & below[b]))


@pytest.mark.parametrize("name", ALL_NAMES)
def test_classes_on_random_subsets_against_oracles(name):
    # the subsets are the down-sets of random elements of a slice, as the
    # contract asks, though neither slices nor unions of whole classes
    spec = catalog(name).spec
    elements = enumerate_orbits(spec, 8 if name == "gl3_split" else 12)
    rng = random.Random(f"subsets:{name}")
    for _ in range(20):
        tops = rng.sample(elements, rng.randint(0, len(elements)))
        subset = tuple(a for a in elements if any(k_leq(spec, a, b) for b in tops))
        assert component_count(spec, subset) == comparability_components(spec, subset), (name, subset)
        assert primitive_relations(spec, subset) == transitive_reduction(spec, subset), (name, subset)


def test_slices_with_classes_without_a_least_member_against_oracles():
    # gl4 with theta swapping e2 and e3 is no real form: its slices at H = 6..10
    # held 10..18 coroot classes with no least member, and validation refuses
    # it; the rule is checked against the oracles on the real forms instead
    swap = ((1, 0, 0, 0), (0, 0, 1, 0), (0, 1, 0, 0), (0, 0, 0, 1))
    spec = InvolutionSpec(gl_datum(4), swap, name="gl4_swap23")
    assert validate_involution(spec) == [
        "Araki's second condition fails: w_M theta fixes the simple coroot (1, -1, 0, 0) outside M,"
        " and <alpha_0, 2 rho_M^vee> = -1 is odd"
    ]
    with pytest.raises(ValidationError, match="^invalid involution 'gl4_swap23': Araki's second condition fails"):
        parse_involution(format_involution(spec))


REAL_FORMS = real_form_specs()


def test_the_real_form_population():
    # the 10 catalog entries, the 16 real forms of gl2-gl5 and as many Levi
    # involutions of B2, C2, G2, B3 and C3 as each type has real forms
    counts = {}
    for spec in REAL_FORMS:
        counts[spec.datum.name] = counts.get(spec.datum.name, 0) + 1
    assert counts == {"sl2": 3, "pgl2": 1, "sl2xsl2": 1, "sl3": 2, "gl1": 1, "gl2": 4 + 1, "gl3": 3 + 1,
                      "gl4": 5, "gl5": 4, "B2": 3, "C2": 3, "G2": 2, "B3": 4, "C3": 3}


@pytest.mark.parametrize("spec", REAL_FORMS, ids=[spec.name for spec in REAL_FORMS])
def test_covers_and_components_against_oracles_on_every_real_form(spec, cleared_caches):
    # the difference rule against the class sweep, and the class count against
    # the all-pairs union-find, on every slice up to height 10
    for bound in range(11):
        elements = enumerate_orbits(spec, bound)
        assert primitive_relations(spec, elements) == sweep_hasse(spec, elements), (spec.name, bound)
        assert component_count(spec, elements) == comparability_components(spec, elements), (spec.name, bound)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_cold_slices_and_counts_compile_no_order(name, cleared_caches):
    # coroot classes and their coordinates decide both the Hasse edges and
    # the component count, so neither compiles a monoid order; each call
    # gets its own copy of the spec, with no cached property set
    sliced, counted = (copy.deepcopy(catalog(name).spec) for _ in range(2))
    elements = build_poset_slice(sliced, 12, "K").elements
    build_poset_slice(sliced, 12, "R")
    component_count(counted, elements)
    for spec in (sliced, counted):
        assert "coroot_order" not in vars(spec.datum)
        assert "step_order" not in vars(spec)


def test_slice_rejects_bad_order():
    with pytest.raises(ValidationError):
        build_poset_slice(catalog("sl2_split").spec, 4, "Q")


def test_enumeration_over_skewed_fixed_basis():
    # rootless rank-2 torus with a non-diagonal involution: the fixed lattice
    # has the skewed basis (2,1), so coefficient bounds must come from the
    # solve matrix, not from coordinate sizes
    spec = skewed_torus_spec()
    assert spec.fixed_basis == ((2, 1),)
    assert enumerate_orbits(spec, 4) == ((-4, -2), (-2, -1), (0, 0), (2, 1), (4, 2))
