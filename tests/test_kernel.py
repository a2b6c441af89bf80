"""The integer kernel of the matrix layer against the LaurentPoly-level
reference it replaced: cofactor determinants and sums of products, here on
``Gaussian`` coefficients so that no kernel code runs on the reference side
(``test_the_reference_runs_without_the_kernel`` checks it).

The loops carry coefficients with denominators 1 to 25, so rows and columns
are cleared with different lcms; the comparison is exact, down to the
determinantal divisors and the column degrees at every reduction step, which
the invariants' error texts print."""

import random
from fractions import Fraction
from itertools import combinations
from math import lcm

import pytest

import matsuki.loopmatrix as loopmatrix
from matsuki.errors import TheoremViolationError, ValidationError
from matsuki.loopmatrix import (
    Gaussian,
    LaurentPoly,
    determinant,
    diagonal_loop,
    form_action,
    form_names,
    identity_loop,
    k_orbit_invariant,
    lm_from_rows,
    mat_inverse,
    mat_mul,
    r_orbit_invariant,
    random_k_loop,
    random_polynomial_loop,
    random_real_loop,
    splitting_type,
    stratum_invariant,
    transpose,
)

from oracles import conjugate_poly, dense_unipotent, symmetric_antiinvolution

ZERO = LaurentPoly.zero()


# ---------------------------------------------------------------------------
# the reference


def ref_dot(plus, minus=()):
    """The sum of p*q over the pairs of ``plus`` minus that over ``minus``, summed on ``Gaussian``
    coefficients: no ``LaurentPoly`` arithmetic, which runs on the kernel's ``_raw_dot``."""
    out = {}
    for sign, pairs in ((Gaussian(1), plus), (Gaussian(-1), minus)):
        for p, q in pairs:
            for e1, c1 in p.items():
                for e2, c2 in q.items():
                    out[e1 + e2] = out.get(e1 + e2, Gaussian(0)) + sign * c1 * c2
    return LaurentPoly(out)


def ref_det(rows):
    m = len(rows)
    if m == 1:
        return rows[0][0]
    if m == 2:
        return ref_dot([(rows[0][0], rows[1][1])], [(rows[0][1], rows[1][0])])
    terms = ([], [])
    for j in range(m):
        if not rows[0][j].is_zero():
            terms[j % 2].append((rows[0][j], ref_det([row[:j] + row[j + 1:] for row in rows[1:]])))
    return ref_dot(*terms)


def ref_matmul(a, b):
    cols = list(zip(*b.entries))
    return lm_from_rows(a.form, [[ref_dot(zip(row, col)) for col in cols] for row in a.entries])


def ref_inverse(g):
    [(e, c)] = ref_det(g.entries).items()
    n = g.n
    if n == 1:
        return lm_from_rows(g.form, [[LaurentPoly.t_power(-e, Gaussian(1) / c)]])
    adjugate = [
        [ref_dot([(ref_det([r[:i] + r[i + 1:] for k, r in enumerate(g.entries) if k != j]),
                   LaurentPoly.t_power(-e, Gaussian((-1) ** (i + j)) / c))]) for j in range(n)]
        for i in range(n)
    ]
    return lm_from_rows(g.form, adjugate)


def _turn(g):
    return lm_from_rows(g.form, [row[::-1] for row in reversed(g.entries)])


def _bar(g):
    return lm_from_rows(g.form, [[conjugate_poly(p.tau()) for p in row] for row in g.entries])


def ref_symmetrize(form, g):
    left = transpose(g) if form.family == "split" else _turn(ref_inverse(g))
    return ref_matmul(left, g)


def ref_real_symmetrized(form, g):
    left = _bar(ref_inverse(g)) if form.family == "split" else _turn(transpose(_bar(g)))
    return ref_matmul(left, g)


def ref_stratum(h, exponent):
    """The stratum invariant of h from the valuations of its minors."""
    n = h.n
    divisors = [0]
    for k in range(1, n):
        divisors.append(min(
            minor.valuation()
            for rows in combinations(h.entries, k)
            for cols in combinations(range(n), k)
            if not (minor := ref_det([[row[j] for j in cols] for row in rows])).is_zero()
        ))
    divisors.append(exponent)
    steps = [b - a for a, b in zip(divisors, divisors[1:])]
    if steps != sorted(steps):
        raise TheoremViolationError(f"determinantal divisors {tuple(divisors)} do not form a divisibility chain")
    return tuple(reversed(steps))


def ref_columns(h):
    """h's columns as Gaussian-integer numerators over each column's lcm."""
    cols = []
    for col in zip(*h.entries):
        d = lcm(*(c.d for p in col for _, c in p.items()))
        cols.append([{e: (c.a * (d // c.d), c.b * (d // c.d)) for e, c in p.items()} for p in col])
    return cols


# ---------------------------------------------------------------------------
# loops with denominators 1 to 25


def _rational(rng):
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 25))


def rational_loops(form, count=5):
    """Seeded unit loops of a form, conjugated by a constant diagonal and
    multiplied by a constant shear, both with denominators 1 to 25; off the
    special forms with determinant (2 + i) t."""
    rng = random.Random(f"kernel:{form.name}")
    n = form.n
    for seed in range(count):
        g = mat_mul(random_real_loop(form, seed), random_k_loop(form, seed + 1))
        g = mat_mul(g, random_polynomial_loop(form, seed + 2))
        if not form.special:
            g = mat_mul(g, _diagonal(form, [LaurentPoly.t_power(1, Gaussian(2, 1))] + [LaurentPoly.one()] * (n - 1)))
        scales = [Gaussian(_rational(rng), _rational(rng) if rng.random() < 0.3 else 0) for _ in range(n)]
        g = mat_mul(mat_mul(_diagonal(form, [LaurentPoly.constant(s) for s in scales]), g),
                    _diagonal(form, [LaurentPoly.constant(Gaussian(1) / s) for s in scales]))
        if n > 1:
            rows = [[LaurentPoly.one() if i == j else ZERO for j in range(n)] for i in range(n)]
            i, j = rng.sample(range(n), 2)
            rows[i][j] = LaurentPoly({rng.randint(-1, 1): Gaussian(_rational(rng))})
            g = mat_mul(g, lm_from_rows(form.name, rows))
        yield g


def _diagonal(form, polys):
    n = form.n
    return lm_from_rows(form.name, [[polys[i] if i == j else ZERO for j in range(n)] for i in range(n)])


def cancelling_minor_loop(form):
    """A 3 x 3 loop of determinant 1, h diag(1, 1, t^-2) with h = [[1, 1, 1], [1, 1 + t, 1],
    [1, 1, 1 + t]] of rank 1 at t = 0: every 2 x 2 minor of h loses its constant term to
    cancellation, as [[1, 1], [1, 1 + t]] does, so a 2 x 2 determinant of the wrong sign moves d_2."""
    t, one = LaurentPoly.t_power, LaurentPoly.one()
    return lm_from_rows(form.name, [[one, one, t(-2)], [one, one + t(1), t(-2)], [one, one, t(-2) + t(-1)]])


def kernel_loops(form, count=5):
    """``rational_loops``, and on a 3 x 3 form ``cancelling_minor_loop`` after them."""
    return [*rational_loops(form, count), *([cancelling_minor_loop(form)] if form.n == 3 else [])]


# ---------------------------------------------------------------------------
# the comparison


def outcome(f, *args):
    try:
        return f(*args)
    except (TheoremViolationError, ValidationError) as exc:
        return type(exc).__name__, str(exc)


def reduction_trail(cols, exponent):
    """The column reduction of cols stopped after 0, 1, 2, ... steps.  A step
    past the stop keeps every column degree, so the run raises there and its
    error text prints the degrees reached; the last entry is the reduction's
    own outcome."""
    real = loopmatrix._kernel_vector
    trail = []
    for stop in range(sum(max(max(p) for p in col if p) for col in cols) - exponent + 2):
        calls = 0

        def stopped(m):
            nonlocal calls
            calls += 1
            return real(m) if calls <= stop else [(1, 0)] + [(0, 0)] * (len(m) - 1)

        loopmatrix._kernel_vector = stopped
        try:
            trail.append(outcome(loopmatrix._splitting, [list(col) for col in cols], exponent))
        finally:
            loopmatrix._kernel_vector = real
        if calls <= stop:
            break
    return trail


def mismatches(form, g):
    """Where the kernel and the reference disagree on g, as (what, kernel, reference)."""
    found = []

    def compare(what, got, want):
        if got != want:
            found.append((what, got, want))

    ref = ref_det(g.entries)
    compare("determinant", outcome(determinant, g), ref)
    det = outcome(form.validate, g)
    terms = ref.items()
    compare("unit monomial", det, terms[0] if len(terms) == 1 else None)
    if [det] != terms:
        return found
    e = det[0]
    x = form.symmetrized_exponent(e)
    inverse = ref_inverse(g)
    compare("inverse", outcome(lambda: mat_inverse(g).entries), inverse.entries)
    symmetrized = outcome(lambda: mat_mul(symmetric_antiinvolution(form, g), g).entries)
    compare("symmetrize", symmetrized, ref_symmetrize(form, g).entries)
    compare("product", outcome(lambda: mat_mul(g, inverse).entries), identity_loop(form.name, form.n).entries)
    compare("product", outcome(lambda: mat_mul(inverse, g).entries), ref_matmul(inverse, g).entries)
    compare("cartan", outcome(stratum_invariant, g), outcome(ref_stratum, g, e))
    cols = loopmatrix._int_rows(zip(*g.entries))[0]
    compare("birkhoff", reduction_trail(cols, e), reduction_trail(ref_columns(g), e))
    # a(g) * g's columns and determinant exponent, g checked on its own columns
    (k_cols, k_x), (r_cols, r_x) = (outcome(form._anti_product, g, real) for real in (False, True))
    compare("anti-product exponents", (k_x, r_x), (x, x))
    if found:
        return found
    k_lam = outcome(loopmatrix._stratum, k_cols, x)
    compare("k-orbit", k_lam, outcome(ref_stratum, ref_symmetrize(form, g), x))
    compare("r-orbit", reduction_trail(r_cols, x), reduction_trail(ref_columns(ref_real_symmetrized(form, g)), x))
    compare("public", (outcome(k_orbit_invariant, g), outcome(r_orbit_invariant, g), outcome(splitting_type, g)),
            (k_lam, reduction_trail(r_cols, x)[-1], reduction_trail(ref_columns(g), e)[-1]))
    return found


@pytest.mark.parametrize("name", form_names())
def test_the_reference_runs_without_the_kernel(name, monkeypatch):
    # a fault in the kernel's products and sums must not reach both sides of the comparison
    form = form_action(name)
    g = next(rational_loops(form, 1))
    [(e, _)] = ref_det(g.entries).items()

    def refused(*_):
        raise AssertionError("the reference called _raw_dot")

    monkeypatch.setattr(loopmatrix, "_raw_dot", refused)
    ref_det(g.entries)
    ref_inverse(g)
    ref_stratum(g, e)


@pytest.mark.parametrize("name", form_names())
def test_kernel_matches_the_laurentpoly_reference(name):
    form = form_action(name)
    loops = kernel_loops(form)
    # rows and columns mix denominators, so each is cleared with its own lcm
    assert form.n == 1 or any(len({p._d for p in row}) > 1 for g in loops for row in g.entries)
    assert form.n == 1 or any(len({p._d for p in col}) > 1 for g in loops for col in zip(*g.entries))
    for g in loops:
        assert mismatches(form, g) == []


# the kernel as it is, for the mutants to call
_int_rows = loopmatrix._int_rows
_raw_det = loopmatrix._raw_det
_adjugate = loopmatrix._adjugate


def _one_row_unscaled(rows):
    """``_int_rows`` with the first row that needs a scale left unscaled."""
    rows = [list(row) for row in rows]
    out, scales = _int_rows(rows)
    for i, (row, s) in enumerate(zip(rows, scales)):
        if s != 1:
            out[i] = [p._c for p in row]
            break
    return out, scales


def _flipped_two_by_two(rows):
    """``_raw_det`` with the sign of the 2x2 closed form's second term flipped."""
    if len(rows) == 2:
        (a, b), (c, d) = rows
        return loopmatrix._raw_dot([(a, d), (b, c)])
    return _raw_det(rows)


def _flipped_cyclic_minor(rows):
    """``_raw_det`` with the sign of the 3x3 closed form's first cyclic minor flipped."""
    if len(rows) == 3:
        r, s, u = rows
        minors = [_raw_det([u[1:], s[1:]]), _raw_det([[s[2], s[0]], [u[2], u[0]]]), _raw_det([s[:2], u[:2]])]
        return loopmatrix._raw_dot([(p, q) for p, q in zip(r, minors) if p])
    return _raw_det(rows)


def _swapped_cofactor(m):
    """``_adjugate`` with the row and column indices of the 3x3 closed form's entry (1, 0) swapped,
    and the determinant read off the result."""
    adj, det = _adjugate(m)
    if len(m) == 3:
        adj[1][0] = adj[0][1]
        det = loopmatrix._raw_dot(zip(m[0], [row[0] for row in adj]))
    return adj, det


# the forms on which each mutant must be caught: a closed form serves one size, so its mutants reach that size
# only, except that the 2 x 2 one also takes the 3 x 3 forms' minors, which ``cancelling_minor_loop`` cancels
_CAUGHT_ON = {
    _one_row_unscaled: ("gl2_split", "gl3_split", "sl2_split", "sl3_split", "u11", "u21"),
    _flipped_two_by_two: ("gl2_split", "gl3_split", "sl2_split", "sl3_split", "u11", "u21"),
    _flipped_cyclic_minor: ("gl3_split", "sl3_split", "u21"),
    _swapped_cofactor: ("gl3_split", "sl3_split", "u21"),
}


@pytest.mark.parametrize("target, mutant", [("_int_rows", _one_row_unscaled), ("_raw_det", _flipped_two_by_two),
                                            ("_raw_det", _flipped_cyclic_minor), ("_adjugate", _swapped_cofactor)])
def test_the_comparison_catches_kernel_mutants(target, mutant, monkeypatch):
    loops = {name: kernel_loops(form_action(name), 2) for name in _CAUGHT_ON[mutant]}
    monkeypatch.setattr(loopmatrix, target, mutant)
    for name, gs in loops.items():
        form = form_action(name)
        caught = []
        for g in gs:
            try:
                caught.append(bool(mismatches(form, g)))
            except (ArithmeticError, LookupError, ValueError):  # a mutant may also crash the kernel
                caught.append(True)
        assert any(caught), name


# ---------------------------------------------------------------------------
# one clearing per invariant, one multiply-accumulate for every product


def counted(monkeypatch, name):
    """Wrap ``loopmatrix.<name>`` so that each call appends to the returned list."""
    real, calls = getattr(loopmatrix, name), []

    def wrapper(*args):
        calls.append(name)
        return real(*args)

    monkeypatch.setattr(loopmatrix, name, wrapper)
    return calls


@pytest.mark.parametrize("name", ["gl2_split", "gl3_split", "u11", "u21"])
@pytest.mark.parametrize("invariant", [stratum_invariant, splitting_type, k_orbit_invariant, r_orbit_invariant])
def test_each_invariant_clears_its_loop_once(invariant, name, monkeypatch):
    # the unit check reads the determinant off the lines that the minors or the reduction use
    g = next(rational_loops(form_action(name), 1))
    want = invariant(g)
    calls = counted(monkeypatch, "_int_rows")
    assert invariant(g) == want
    assert len(calls) == 1


_P = LaurentPoly({-1: Gaussian(Fraction(1, 2)), 2: Gaussian(1, 3)})
_Q = LaurentPoly({0: Gaussian(Fraction(-2, 3), 1), 2: Gaussian(-1, -3)})  # cancels _P's t^2 in a sum
_SHEAR_COLUMNS = [[{1: (1, 0)}, {}], [{0: (1, 0)}, {-1: (1, 0)}]]  # [[t, 1], [0, 1/t]], one reduction step


@pytest.mark.parametrize("run", [
    lambda: _P + _Q,
    lambda: _P - _Q,
    lambda: _P.scale(Gaussian(Fraction(3, 4), -1)),
    lambda: mat_inverse(lm_from_rows("gl1_split", [[LaurentPoly.t_power(2, Gaussian(2, 1))]])).entries,
    lambda: loopmatrix._splitting([list(col) for col in _SHEAR_COLUMNS], 0),
], ids=["add", "sub", "scale", "inverse-1x1", "splitting"])
def test_sums_scalings_and_reduction_steps_run_on_raw_dot(run, monkeypatch):
    want = run()
    calls = counted(monkeypatch, "_raw_dot")
    assert run() == want
    assert calls


def two_loop_dot(plus, minus=()):
    """``_raw_dot`` as it was before its shortcuts: every pair by two nested loops, each
    product added to a ``(0, 0)`` default and the zero pairs filtered at the end."""
    out = {}
    for sign, pairs in ((1, plus), (-1, minus)):
        for p, q in pairs:
            for e1, (a1, b1) in p.items():
                a1, b1 = sign * a1, sign * b1
                for e2, (a2, b2) in q.items():
                    s = out.get(e := e1 + e2, (0, 0))
                    out[e] = (s[0] + a1 * a2 - b1 * b2, s[1] + a1 * b2 + b1 * a2)
    return {e: s for e, s in out.items() if s[0] or s[1]}


def _raw_poly(rng, terms):
    """A numerator dict of at most ``terms`` terms, exponents from -4 to 4."""
    return {rng.randint(-4, 4): rng.choice([(1, 0), (-1, 0), (0, 1), (2, -3), (-5, 4)]) for _ in range(terms)}


def test_one_term_operands_match_the_two_loop_product():
    rng, one_term = random.Random(5), 0
    for _ in range(400):
        pairs = [(_raw_poly(rng, rng.randint(0, 4)), _raw_poly(rng, rng.choice((1, 1, 3))))
                 for _ in range(rng.randint(1, 4))]
        split = rng.randint(0, len(pairs))
        plus, minus = pairs[:split], pairs[split:]
        one_term += sum(len(q) == 1 for _, q in minus)
        got = loopmatrix._raw_dot(plus, minus)
        assert list(got.items()) == list(two_loop_dot(plus, minus).items()), (plus, minus)  # same insertion order
    assert one_term > 300
    p, q = {-3: (2, -1), 0: (1, 0), 4: (5, 7)}, {-2: (1, 3)}
    assert loopmatrix._raw_dot([(p, q)], [(p, q)]) == {}  # a sum that cancels to zero


# ---------------------------------------------------------------------------
# the pruned minors of the stratum invariant


def _gaussian_poly(rng, terms):
    return LaurentPoly({rng.randint(-2, 3): Gaussian(rng.randint(-3, 3), rng.choice((0, 0, rng.randint(-2, 2))))
                        for _ in range(terms)})


def _constant_rows(rng, n):
    """An invertible n x n matrix of small Gaussian integers, as LaurentPoly rows."""
    while True:
        rows = [[LaurentPoly.constant(Gaussian(rng.randint(-2, 2), rng.choice((0, 1)))) for _ in range(n)]
                for _ in range(n)]
        if not ref_det(rows).is_zero():
            return rows


def _pruning_matrices():
    """Seeded matrices of size 2 and 3, as every loop is: sparse ones, and P t^lam Q with constant
    P and Q, whose minors of least bound cancel; plus hand-picked cancellations."""
    rng = random.Random("stratum-pruning")
    for n in (2, 3):
        for _ in range(20):
            yield lm_from_rows("m", [[_gaussian_poly(rng, rng.choice((0, 1, 1, 2, 3))) for _ in range(n)]
                                     for _ in range(n)])
            lam = [rng.randint(-2, 3) for _ in range(n)]
            g = mat_mul(lm_from_rows("m", _constant_rows(rng, n)), diagonal_loop("m", lam))
            yield mat_mul(g, lm_from_rows("m", _constant_rows(rng, n)))
    t = LaurentPoly.t_power
    one = LaurentPoly.one()
    yield lm_from_rows("m", [[one, one], [one, one + t(1)]])  # det t, every entry of valuation 0
    # the minor of least bound, rows and columns 1-2, cancels to t^2; rows and columns 1 and 3 give t
    yield lm_from_rows("m", [[one, one, ZERO], [one, one + t(2), ZERO], [ZERO, ZERO, t(1)]])


def test_pruned_minors_match_all_minors():
    seen = 0
    for h in _pruning_matrices():
        det = ref_det(h.entries)
        if det.is_zero():
            continue
        seen += 1
        rows = loopmatrix._int_rows(h.entries)[0]
        e = det.valuation()
        assert outcome(loopmatrix._stratum, rows, e) == outcome(ref_stratum, h, e), h
    assert seen > 60


def _row_bound_stratum(rows, exponent):
    """``_stratum`` with the bound it had before the two-product one: a minor's valuation is at least
    the sum over its rows of each row's least valuation in its columns, and a zero row makes it zero."""
    n = len(rows)
    lows = [[min(p) if p else None for p in row] for row in rows]
    divisors = [0, min(v for low in lows for v in low if v is not None)][:n]
    for k in range(2, n):
        bounded = []
        for cols in combinations(range(n), k):
            row_lows = {i: min(v) for i, low in enumerate(lows) if (v := [low[j] for j in cols if low[j] is not None])}
            bounded += [(sum(row_lows[i] for i in sub), sub, cols) for sub in combinations(row_lows, k)]
        least = None
        for bound, sub, cols in sorted(bounded):
            if least is not None and bound >= least:
                break
            if minor := loopmatrix._raw_det([[rows[i][j] for j in cols] for i in sub]):
                least = min(minor) if least is None else min(least, min(minor))
        divisors.append(least)
    return tuple(reversed([b - a for a, b in zip(divisors, [*divisors[1:], exponent])]))


def test_the_two_product_bound_computes_no_more_minors_than_the_row_bound(monkeypatch):
    # the stratum inputs of the pruning matrices, and the one k_orbit_invariant makes of a dense gl3 loop
    inputs = {"pruning": [(loopmatrix._int_rows(h.entries)[0], det.valuation())
                          for h in _pruning_matrices() if not (det := ref_det(h.entries)).is_zero()],
              "dense": []}
    stratum = loopmatrix._stratum
    monkeypatch.setattr(loopmatrix, "_stratum", lambda *args: inputs["dense"].append(args) or stratum(*args))
    k_orbit_invariant(dense_unipotent(50))
    minors = counted(monkeypatch, "_raw_det")  # each a 2 x 2 minor: only n = 3 has minors to search
    totals = {}
    for name, calls in inputs.items():
        totals[name] = (0, 0)
        for args in calls:
            made = []
            for search in (stratum, _row_bound_stratum):
                minors.clear()
                made.append((search(*args), len(minors)))
            (lam, new), (old_lam, old) = made
            assert lam == old_lam and new <= old, args
            totals[name] = (totals[name][0] + new, totals[name][1] + old)
    assert totals == {"pruning": (114, 151), "dense": (1, 3)}


# ---------------------------------------------------------------------------
# self-adjoint products by halves


def full_anti_product(form, g, real):
    """The numerator columns of a(g) * g as ``FormAction._anti_product`` builds them,
    with each of the n^2 entries a product: the oracle for its half products."""
    cols = loopmatrix._int_rows(zip(*g.entries))[0]
    left = cols  # the rows of g^T
    if (form.family == "split") == real:
        e = form.validate(g)[0]
        left = [[{x - e: v for x, v in p.items()} for p in row] for row in loopmatrix._adjugate([*zip(*cols)])[0]]
    if real:
        left = [[{-x: (a, -b) for x, (a, b) in p.items()} for p in row] for row in left]
    if form.family != "split":
        left = [row[::-1] for row in reversed(left)]
    return [[loopmatrix._raw_dot(zip(row, col)) for row in left] for col in cols]


@pytest.mark.parametrize("name", form_names())
def test_anti_product_matches_the_full_product(name):
    form = form_action(name)
    for g in rational_loops(form):
        for real in (False, True):
            assert form._anti_product(g, real)[0] == full_anti_product(form, g, real)


# ---------------------------------------------------------------------------
# the work of the four invariants, pinned


@pytest.mark.parametrize("name, raw_dots, kernel_vectors", [
    ("gl3_split", (3, 4, 12, 22), (0, 0, 0, 1)),
    ("u21", (3, 5, 20, 11), (0, 1, 0, 1)),
])
def test_the_invariants_make_a_pinned_number_of_products_and_kernel_solves(name, raw_dots, kernel_vectors, monkeypatch):
    # splitting_type stops at the degree sum, the minors at their valuation bound, the
    # adjugate yields the unit check, and a self-adjoint a(g) * g is built by halves
    g = next(rational_loops(form_action(name), 1))
    dots, kernels = counted(monkeypatch, "_raw_dot"), counted(monkeypatch, "_kernel_vector")
    made = []
    for invariant in (stratum_invariant, splitting_type, k_orbit_invariant, r_orbit_invariant):
        dots.clear()
        kernels.clear()
        invariant(g)
        made.append((len(dots), len(kernels)))
    assert made == list(zip(raw_dots, kernel_vectors))
