"""The laws behind ``matsuki check``, as public functions that ``check`` and the
tests share.  Each law takes the finite set it checks (elements of a slice,
real coweights, cone vectors, a poset slice, or a loop count with a seed) and
returns None or a one-line description of the first counterexample;
``run_suites`` calls them at the bounds of ``check``.
"""

from __future__ import annotations

from itertools import product

from .errors import TheoremViolationError, ValidationError
from .loopmatrix import (
    FormAction,
    form_action,
    form_names,
    geodesic_representative,
    k_orbit_invariant,
    mat_mul,
    r_orbit_invariant,
    random_k_loop,
    random_polynomial_loop,
    random_real_loop,
    splitting_type,
    stratum_invariant,
)
from .orbitposet import build_poset_slice, enumerate_orbits, k_leq, primitive_relations, r_leq, real_step_leq
from .realform import catalog
from .rootdata import column_matrix, dominance_leq, fmt_coweight, gl_datum, height, is_dominant, mat_vec, simple_coroots


def real_dominant_up_to(spec, bound):
    """The theta-fixed dominant coweights of height 0 to bound, in box order."""
    box = product(range(-bound, bound + 1), repeat=spec.datum.rank)
    return [v for v in box if spec.is_real(v) and is_dominant(spec.datum, v) and 0 <= height(spec.datum, v) <= bound]


def positive_cone_reals(spec, bound):
    """The theta-fixed vectors of the positive coroot cone of height at most
    bound, in the order of their simple-coroot coefficients."""
    simples = simple_coroots(spec.datum)
    columns = column_matrix(simples, spec.datum.rank)
    out = []
    for coeffs in product(*[range(bound // height(spec.datum, b) + 1) for b in simples]):
        vec = mat_vec(columns, coeffs)
        if height(spec.datum, vec) <= bound and spec.is_real(vec):
            out.append(vec)
    return out


def _all_pairs(elements, holds, failure):
    """None, or the failure text at the first pair (a, b) on which holds fails."""
    for a in elements:
        for b in elements:
            if not holds(a, b):
                return failure.format(fmt_coweight(a), fmt_coweight(b))
    return None


def generation(spec, vectors) -> str | None:
    """Every given fixed vector decomposes into the restricted coroot generators."""
    zero = (0,) * spec.datum.rank
    for vec in vectors:
        if not real_step_leq(spec, zero, vec):
            return f"{fmt_coweight(vec)} does not decompose into restricted generators"
    return None


def duality(spec, elements) -> str | None:
    """The R-order is the K-order reversed on every pair of elements."""
    return _all_pairs(elements, lambda a, b: r_leq(spec, a, b) == k_leq(spec, b, a), "duality fails at {}, {}")


def step_order(spec, reals) -> str | None:
    """The step order is dominance on every pair of real coweights."""
    return _all_pairs(
        reals,
        lambda a, b: real_step_leq(spec, a, b) == dominance_leq(spec.datum, a, b),
        "step order disagrees with dominance at {}, {}",
    )


def hasse_closure(spec, elements) -> str | None:
    """What the Hasse edges of the elements reach is the K-order on them."""
    successors = {a: [] for a in elements}
    for a, b in primitive_relations(spec, elements):
        successors[a].append(b)
    reach = {}
    for a in elements:
        reach[a], stack = {a}, [a]
        while stack:
            fresh = [b for b in successors[stack.pop()] if b not in reach[a]]
            reach[a].update(fresh)
            stack += fresh
    return _all_pairs(
        elements, lambda a, b: (b in reach[a]) == k_leq(spec, a, b), "Hasse closure disagrees with the order at {}, {}"
    )


def chain_structure(spec, slice_) -> str | None:
    """For the adjoint rank-one entry the poset is a total chain with index 2."""
    if slice_.image_index != 2:
        return f"image index {slice_.image_index}, expected 2"
    elems = slice_.elements
    problem = _all_pairs(elems, lambda a, b: k_leq(spec, a, b) or k_leq(spec, b, a), "{} and {} are incomparable")
    if problem is None and slice_.hasse_edges != tuple(zip(elems, elems[1:])):
        return "Hasse edges are not the consecutive chain"
    return problem


def seeded_loop(form: FormAction, seed: int, i: int):
    """The i-th real*K*polynomial loop of the form at the seed."""
    real, k = random_real_loop(form, seed * 1000 + i), random_k_loop(form, seed * 2000 + i)
    return mat_mul(mat_mul(real, k), random_polynomial_loop(form, seed * 3000 + i))


def matrix_invariance(form: FormAction, seed: int, loops: int) -> str | None:
    """Birkhoff below Cartan and the four invariants under their groups on the
    first ``loops`` seeded loops, and the geodesic pairing on the split forms."""
    datum = gl_datum(form.n)
    for i in range(loops):
        g = seeded_loop(form, seed, i)
        cartan, birkhoff = stratum_invariant(g), splitting_type(g)
        if not dominance_leq(datum, birkhoff, cartan):
            return f"Birkhoff {fmt_coweight(birkhoff)} not below Cartan {fmt_coweight(cartan)} at loop {i}"
        a = random_polynomial_loop(form, seed * 4000 + i)
        b = random_polynomial_loop(form, seed * 5000 + i)
        if stratum_invariant(mat_mul(mat_mul(a, g), b)) != cartan:
            return f"Cartan invariance fails at loop {i}"
        minus = random_polynomial_loop(form, seed * 6000 + i, negative=True)
        if splitting_type(mat_mul(mat_mul(minus, g), b)) != birkhoff:
            return f"Birkhoff invariance fails at loop {i}"
        k_inv = k_orbit_invariant(g)
        if k_orbit_invariant(mat_mul(mat_mul(random_k_loop(form, seed * 7000 + i), g), b)) != k_inv:
            return f"k-orbit invariance fails at loop {i}"
        r_inv = r_orbit_invariant(g)
        if r_orbit_invariant(mat_mul(random_real_loop(form, seed * 8000 + i), g)) != r_inv:
            return f"r-orbit invariance fails at loop {i}"
    if form.family == "split" and form.n > 1:
        lam = (1,) + (0,) * (form.n - 2) + (-1,) if form.special else (1, 1) + (0,) * (form.n - 2)
        c = geodesic_representative(form, lam)
        if k_orbit_invariant(c) != lam or r_orbit_invariant(c) != lam:
            return "geodesic duality pairing fails"
    return None


def intersection(form: FormAction, seed: int, loops: int) -> str | None:
    """On the first ``loops`` seeded loops, the R-orbit index lies below the
    K-orbit index in the entry's K-order.  The two orbits through a loop
    meet, and on flag varieties a K-orbit meets a real-group orbit exactly
    when they stand in the closure order (Matsuki, Hiroshima Math. J. 12,
    1982; Mirkovic, Uzawa and Vilonen, Invent. Math. 109, 1992).  Not a
    suite of ``check``, whose output is pinned."""
    spec = catalog(form.entry).spec
    for i in range(loops):
        g = seeded_loop(form, seed, i)
        lam, mu = r_orbit_invariant(g), k_orbit_invariant(g)
        r, k = form.to_entry(lam), form.to_entry(mu)
        if r is None or k is None or not k_leq(spec, r, k):
            return f"R-orbit invariant {fmt_coweight(lam)} not below K-orbit invariant {fmt_coweight(mu)} at loop {i}"
    return None


def run_suites(names, seed: int) -> int:
    matrix_forms = {form.entry: form for form in map(form_action, form_names())}
    failures = 0
    for entry_name in names:
        spec = catalog(entry_name).spec
        # each runner builds its own set: duality and Hasse share a cached slice
        suites = [
            ("generation", lambda: generation(spec, positive_cone_reals(spec, 10))),
            ("duality", lambda: duality(spec, enumerate_orbits(spec, 10))),
            ("step-order", lambda: step_order(spec, real_dominant_up_to(spec, 8))),
            ("hasse-closure", lambda: hasse_closure(spec, enumerate_orbits(spec, 10))),
        ]
        if entry_name == "pgl2_so21":
            suites.append(("chain-structure", lambda: chain_structure(spec, build_poset_slice(spec, 12, "K"))))
        if entry_name in matrix_forms:
            suites.append(("matrix-invariance", lambda: matrix_invariance(matrix_forms[entry_name], seed, 12)))
        for suite_name, runner in suites:
            try:
                problem = runner()
            except (ValidationError, TheoremViolationError) as exc:
                problem = str(exc)
            if problem is None:
                print(f"suite {entry_name}/{suite_name}: PASS")
            else:
                failures += 1
                print(f"suite {entry_name}/{suite_name}: FAIL ({problem})")
    if failures:
        print(f"check: {failures} suite(s) failed")
        return 2
    print("check: all suites passed")
    return 0
