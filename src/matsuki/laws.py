"""Property suites behind ``matsuki check``: bounded exhaustive checks of the
lattice laws on each catalog entry, and seeded invariance checks of the
matrix invariants on the entries that have a matrix form.  Each suite returns
None or a one-line description of the first counterexample.
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
from .rootdata import dominance_leq, fmt_coweight, gl_datum, height, is_dominant, simple_coroots, vec_add, vec_scale


def _real_dominant_up_to(spec, bound):
    out = []
    for vec in product(range(-bound, bound + 1), repeat=spec.datum.rank):
        if spec.is_real(vec) and is_dominant(spec.datum, vec) and 0 <= height(spec.datum, vec) <= bound:
            out.append(vec)
    return out


def _suite_generation(spec) -> str | None:
    """Every fixed vector of the positive cone decomposes into the restricted
    coroot generators (bounded exhaustive check)."""
    simples = simple_coroots(spec.datum)
    zero, bound = (0,) * spec.datum.rank, 10
    heights = [height(spec.datum, b) for b in simples]
    for coeffs in product(*[range(bound // h + 1) for h in heights]):
        vec = zero
        for c, b in zip(coeffs, simples):
            vec = vec_add(vec, vec_scale(c, b))
        if height(spec.datum, vec) > bound or not spec.is_real(vec):
            continue
        if not real_step_leq(spec, zero, vec):
            return f"{fmt_coweight(vec)} does not decompose into restricted generators"
    return None


def _suite_duality(spec) -> str | None:
    elements = enumerate_orbits(spec, 10)
    for a in elements:
        for b in elements:
            if r_leq(spec, a, b) != k_leq(spec, b, a):
                return f"duality fails at {fmt_coweight(a)}, {fmt_coweight(b)}"
    return None


def _suite_step_order(spec) -> str | None:
    reals = _real_dominant_up_to(spec, 8)
    for a in reals:
        for b in reals:
            if real_step_leq(spec, a, b) != dominance_leq(spec.datum, a, b):
                return f"step order disagrees with dominance at {fmt_coweight(a)}, {fmt_coweight(b)}"
    return None


def _suite_hasse(spec) -> str | None:
    elements = enumerate_orbits(spec, 10)
    edges = set(primitive_relations(spec, elements))
    reach = {a: {a} for a in elements}
    changed = True
    while changed:
        changed = False
        for a, b in edges:
            for targets in reach.values():
                if a in targets and b not in targets:
                    targets.add(b)
                    changed = True
    for a in elements:
        for b in elements:
            if (b in reach[a]) != k_leq(spec, a, b):
                return f"Hasse closure disagrees with the order at {fmt_coweight(a)}, {fmt_coweight(b)}"
    return None


def _suite_chain(spec) -> str | None:
    """For the adjoint rank-one entry the poset is a total chain with index 2."""
    slice_ = build_poset_slice(spec, 12, "K")
    if slice_.image_index != 2:
        return f"image index {slice_.image_index}, expected 2"
    elems = slice_.elements
    for a in elems:
        for b in elems:
            if not (k_leq(spec, a, b) or k_leq(spec, b, a)):
                return f"{fmt_coweight(a)} and {fmt_coweight(b)} are incomparable"
    expected_edges = tuple((elems[i], elems[i + 1]) for i in range(len(elems) - 1))
    if slice_.hasse_edges != expected_edges:
        return "Hasse edges are not the consecutive chain"
    return None


def _suite_matrix(form: FormAction, seed: int) -> str | None:
    datum = gl_datum(form.n)
    for i in range(12):  # loops per form and seed
        g = mat_mul(
            mat_mul(random_real_loop(form, seed * 1000 + i), random_k_loop(form, seed * 2000 + i)),
            random_polynomial_loop(form, seed * 3000 + i),
        )
        cartan = stratum_invariant(g)
        birkhoff = splitting_type(g)
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
        if form.special:
            lam = (1,) + (0,) * (form.n - 2) + (-1,)
        else:
            lam = (1, 1) + (0,) * (form.n - 2)
        c = geodesic_representative(form, lam)
        if k_orbit_invariant(c) != lam or r_orbit_invariant(c) != lam:
            return "geodesic duality pairing fails"
    return None


def run_suites(names, seed: int) -> int:
    matrix_forms = {form.entry: form for form in map(form_action, form_names())}
    failures = 0
    for entry_name in names:
        spec = catalog(entry_name).spec
        suites = [
            ("generation", lambda s=spec: _suite_generation(s)),
            ("duality", lambda s=spec: _suite_duality(s)),
            ("step-order", lambda s=spec: _suite_step_order(s)),
            ("hasse-closure", lambda s=spec: _suite_hasse(s)),
        ]
        if entry_name == "pgl2_so21":
            suites.append(("chain-structure", lambda s=spec: _suite_chain(s)))
        if entry_name in matrix_forms:
            suites.append(
                ("matrix-invariance", lambda f=matrix_forms[entry_name]: _suite_matrix(f, seed))
            )
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
