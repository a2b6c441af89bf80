"""Exact Laurent-matrix arithmetic and the four double-coset invariants."""

import copy
import functools
import hashlib
import pickle
import random
from fractions import Fraction
from itertools import combinations, product
from math import gcd
from operator import ne
from pathlib import Path

import pytest

from matsuki import laws, loopmatrix
from matsuki.errors import TheoremViolationError, ValidationError
from matsuki.loopmatrix import (
    Gaussian,
    LaurentPoly,
    apply_tau,
    determinant,
    diagonal_loop,
    form_action,
    form_names,
    geodesic_representative,
    identity_loop,
    k_orbit_invariant,
    lm_from_rows,
    loops_equal,
    mat_inverse,
    mat_mul,
    max_degree,
    min_valuation,
    r_orbit_invariant,
    random_k_loop,
    random_polynomial_loop,
    random_real_loop,
    splitting_type,
    stratum_invariant,
    transpose,
)
from matsuki.orbitposet import k_leq
from matsuki.realform import catalog
from matsuki.textio import format_matrix

from oracles import (
    apply_conjugation,
    conjugate_poly,
    dense_unipotent,
    gaussian,
    pair_product,
    pair_quotient,
    pair_sum,
    parts,
    real_antiinvolution,
    symmetric_antiinvolution,
    wide_real_loop,
)

ONE = LaurentPoly.one()
ZERO = LaurentPoly.zero()


def t_pow(e, re=1, im=0):
    return LaurentPoly.t_power(e, gaussian(re, im))


def upper_unipotent(form, p):
    return lm_from_rows(form, [[ONE, p], [ZERO, ONE]])


# ---------------------------------------------------------------------------
# arithmetic


def _gaussian_reference_triples():
    """Int triples (a, b, d), d > 0, and the (re, im) Fraction pair of (a + b*i)/d."""
    from hypothesis import strategies as st

    part = st.integers(-40, 40)
    return st.builds(lambda a, b, d: ((a, b, d), (Fraction(a, d), Fraction(b, d))), part, part, st.integers(1, 36))


def _assert_normalized(g):
    assert g.d > 0 and gcd(g.a, g.b, g.d) == 1
    assert type(g.a) is type(g.b) is type(g.d) is int


def test_gaussian_matches_fraction_pair_reference():
    """The integer triple against (re, im) pairs of Fractions: normalization,
    -x, conjugate, equality, hash and bool, all that a coefficient value keeps."""
    from hypothesis import given, settings

    @settings(max_examples=300, deadline=None)
    @given(_gaussian_reference_triples(), _gaussian_reference_triples())
    def agree(first, second):
        (fields, p), (other, q) = first, second
        x, y = Gaussian(*fields), Gaussian(*other)
        for got, want in ((x, p), (-x, (-p[0], -p[1])), (x.conjugate(), (p[0], -p[1]))):
            _assert_normalized(got)
            assert parts(got) == want
            assert got == gaussian(*want) and hash(got) == hash(gaussian(*want))  # the value built from the pair
            assert bool(got) == any(want)
        assert (x == y) == (p == q)

    agree()


def test_gaussian_normalization():
    fields = [(g.a, g.b, g.d) for g in (Gaussian(2, 4, 6), Gaussian(0, 0, 5), Gaussian(-3, 0, 6), Gaussian())]
    assert fields == [(1, 2, 3), (0, 0, 1), (-1, 0, 2), (0, 0, 1)]
    half = Gaussian(2, 0, 4)
    assert half == Gaussian(1, 0, 2) and hash(half) == hash(Gaussian(1, 0, 2))
    mixed = gaussian(Fraction(1, 6), Fraction(-3, 4))  # (2 - 9i)/12
    assert (mixed.a, mixed.b, mixed.d) == (2, -9, 12) and mixed == Gaussian(4, -18, 24)
    assert repr(mixed) == "Gaussian(2, -9, 12)" and eval(repr(mixed)) == mixed
    with pytest.raises(AttributeError):
        half.a = 2


def test_values_are_immutable_copyable_and_equal_only_to_their_kind():
    g, p = Gaussian(1, -6, 2), LaurentPoly({1: Gaussian(1), -3: Gaussian(1, -2)})
    for twin in (copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
        assert twin == g and (twin.a, twin.b, twin.d) == (1, -6, 2)
    with pytest.raises(AttributeError, match="^LaurentPoly values are immutable$"):
        p._d = 2
    assert g != (1, -6, 2) and Gaussian(1) != 1 and p != {1: 1} and LaurentPoly.one() != 1
    assert repr(p) == "(1-2i)*t^-3 + (1+0i)*t"


@pytest.mark.parametrize("fields, shown", [
    ((0.1,), "0.1, 0 and 1"),
    ((1, 0.5), "1, 0.5 and 1"),
    ((1, Fraction(1, 2)), "1, Fraction(1, 2) and 1"),
    (("1/2",), "'1/2', 0 and 1"),
    ((Gaussian(1),), "Gaussian(1, 0, 1), 0 and 1"),
    ((1, 0, 0), "1, 0 and 0"),
    ((1, 0, -2), "1, 0 and -2"),
], ids=["float", "float-im", "Fraction", "str", "Gaussian", "d=0", "d=-2"])
def test_gaussian_parts_are_ints_over_a_positive_d(fields, shown):
    # a float would be read as its binary fraction: 0.1 is 3602879701896397/2**55
    with pytest.raises(ValidationError) as refused:
        Gaussian(*fields)
    assert str(refused.value) == f"Gaussian parts must be ints with d > 0, got {shown}"


def test_constant_polynomials_take_no_floats():
    for value in (0.1, Fraction(1, 10)):
        with pytest.raises(ValidationError, match="^Gaussian parts must be ints with d > 0"):
            LaurentPoly.constant(value)
    assert LaurentPoly.constant(Gaussian(1, 0, 10)) == LaurentPoly.constant(gaussian(Fraction(1, 10)))


def test_poly_ring_ops():
    p = LaurentPoly({1: Gaussian(1), -1: Gaussian(1)})
    q = LaurentPoly({0: Gaussian(2)})
    assert dict((p * q).items())[1] == Gaussian(2)
    assert p.tau() == p
    assert (p - p).is_zero()
    assert p.valuation() == -1 and p.degree() == 1


def _poly_strategy():
    from hypothesis import strategies as st

    coeff = st.builds(
        gaussian,
        st.fractions(min_value=-3, max_value=3, max_denominator=4),
        st.fractions(min_value=-3, max_value=3, max_denominator=4),
    )
    return st.dictionaries(st.integers(-4, 4), coeff, max_size=4).map(LaurentPoly)


def test_poly_ring_laws():
    from hypothesis import given, settings

    @settings(max_examples=60, deadline=None)
    @given(_poly_strategy(), _poly_strategy(), _poly_strategy())
    def laws(p, q, r):
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p * q == q * p
        assert (p + q).tau() == p.tau() + q.tau()
        assert (p * q).tau() == p.tau() * q.tau()
        assert conjugate_poly(p * q) == conjugate_poly(p) * conjugate_poly(q)

    laws()


def test_malformed_loops_are_refused():
    one, zero = LaurentPoly.one(), LaurentPoly.zero()
    for rows in ([], [[one], [one, zero]], [[one, zero]]):
        with pytest.raises(ValidationError, match="^loop matrix must be square and non-empty$"):
            lm_from_rows("gl2_split", rows)
    for n in (4, 5):  # no form is larger than 3 x 3
        with pytest.raises(ValidationError, match=rf"^loop matrix must be at most 3 x 3, as every form is; got {n} x {n}$"):
            lm_from_rows("gl3_split", [[one if i == j else zero for j in range(n)] for i in range(n)])
    with pytest.raises(ValidationError, match="^size mismatch in matrix product$"):
        mat_mul(identity_loop("gl2_split", 2), identity_loop("gl3_split", 3))
    nothing = lm_from_rows("gl2_split", [[zero, zero], [zero, zero]])
    with pytest.raises(ValidationError, match="^zero matrix has no valuation$"):
        min_valuation(nothing)
    with pytest.raises(ValidationError, match="^zero matrix has no degree$"):
        max_degree(nothing)


def test_identity_inverse():
    g = identity_loop("gl2_split", 2)
    assert loops_equal(mat_inverse(g), g)


def test_diag_inverse():
    g = diagonal_loop("gl2_split", (1, -1))
    assert loops_equal(mat_inverse(g), diagonal_loop("gl2_split", (-1, 1)))


def test_unipotent_times_inverse_is_identity():
    g = upper_unipotent("gl2_split", t_pow(-1))
    assert loops_equal(mat_mul(g, mat_inverse(g)), identity_loop("gl2_split", 2))


def test_inverse_of_non_unit_determinant_fails():
    g = lm_from_rows("gl2_split", [[ONE, ONE], [ONE, ONE + t_pow(1)]])  # det = t... fine
    mat_inverse(g)
    bad = lm_from_rows("gl2_split", [[ONE + t_pow(1), ZERO], [ZERO, ONE]])
    with pytest.raises(ValidationError, match="determinant"):
        mat_inverse(bad)


def _seeded_unit_loops(form):
    """Seeded loops of a form; off the special forms they carry a determinant
    (2 + i) t, so that the monomial algebra sees a non-trivial coefficient."""
    n = form.n
    if form.special:
        twist = identity_loop(form.name, n)
    else:
        rows = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
        rows[0][0] = t_pow(1, 2, 1)
        twist = lm_from_rows(form.name, rows)
    for seed in range(5):
        g = mat_mul(random_real_loop(form, seed), random_k_loop(form, seed + 1))
        yield mat_mul(mat_mul(g, twist), random_polynomial_loop(form, seed + 2))


@pytest.mark.parametrize("name", form_names())
def test_unit_loops_invert_and_symmetrize_to_the_predicted_exponent(name):
    form = form_action(name)
    identity = identity_loop(name, form.n)
    for g in _seeded_unit_loops(form):
        det = form.validate(g)
        assert [det] == determinant(g).items()
        inv = mat_inverse(g)
        assert loops_equal(mat_mul(g, inv), identity)
        assert loops_equal(mat_mul(inv, g), identity)
        [(e, _)] = determinant(mat_mul(symmetric_antiinvolution(form, g), g)).items()
        assert e == form.symmetrized_exponent(det[0])
        real_sym = mat_mul(real_antiinvolution(form, g), g)
        [(e, _)] = determinant(real_sym).items()
        assert e == form.symmetrized_exponent(det[0])


@pytest.mark.parametrize(
    "invariant", [stratum_invariant, splitting_type, k_orbit_invariant, r_orbit_invariant]
)
def test_invariants_reject_non_unit_determinant(invariant):
    bad = lm_from_rows("gl2_split", [[ONE + t_pow(1), ZERO], [ZERO, ONE]])  # det = 1 + t
    with pytest.raises(ValidationError, match="determinant"):
        invariant(bad)


@pytest.mark.parametrize("check", [
    k_orbit_invariant, r_orbit_invariant, lambda g: form_action(g.form).validate(g)
], ids=["k_orbit", "r_orbit", "validate"])
def test_form_checks_reject_a_wrong_size_and_a_determinant_other_than_one(check):
    # the orbit invariants check g on the columns they clear, with validate's texts
    with pytest.raises(ValidationError, match=r"^form gl3_split expects size 3, got 2$"):
        check(identity_loop("gl3_split", 2))
    for det in (t_pow(1), t_pow(0, 2), t_pow(0, 0, 1)):
        with pytest.raises(ValidationError, match=r"^form sl2_split requires determinant 1$"):
            check(lm_from_rows("sl2_split", [[det, ZERO], [ZERO, ONE]]))
    assert check(lm_from_rows("sl2_split", [[t_pow(1), ZERO], [ZERO, t_pow(-1)]])) is not None


def test_tau_is_an_involution():
    g = upper_unipotent("gl2_split", t_pow(-2, 1, 1) + t_pow(3, Fraction(1, 2)))
    assert loops_equal(apply_tau(apply_tau(g)), g)
    assert loops_equal(apply_conjugation(apply_conjugation(g)), g)


# ---------------------------------------------------------------------------
# form actions


@pytest.mark.parametrize("name", form_names())
def test_involutions_square_to_identity_on_generated_loops(name):
    form = form_action(name)
    n = form.n
    samples = [identity_loop(name, n)]
    for seed in range(4):
        samples.append(random_polynomial_loop(form, seed))
        samples.append(random_real_loop(form, seed))
        samples.append(random_k_loop(form, seed))
    if n >= 2:
        rows = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
        rows[0][n - 1] = t_pow(1, 1, 1) + t_pow(-1, 0, -1)
        samples.append(lm_from_rows(name, rows))
    for g in samples:
        assert loops_equal(form.symmetric_involution(form.symmetric_involution(g)), g)
        assert loops_equal(form.real_involution(form.real_involution(g)), g)


def _j(form):
    n = form.n
    return lm_from_rows(form.name, [[ONE if i + j == n - 1 else ZERO for j in range(n)] for i in range(n)])


def involution_formulas(form, g):
    """The involutions of a form and their anti-involutions written as
    products: split forms by their definitions, unitary forms with two
    products by the anti-diagonal J.  The anti-involutions are the tests' own
    (``oracles``)."""
    if form.family == "split":
        return {
            "symmetric_involution": mat_inverse(transpose(g)),
            "real_involution": apply_conjugation(apply_tau(g)),
            "real_antiinvolution": apply_conjugation(apply_tau(mat_inverse(g))),
            "symmetric_antiinvolution": transpose(g),
        }
    j = _j(form)
    return {
        "symmetric_involution": mat_mul(mat_mul(j, g), j),
        "real_involution": mat_mul(mat_mul(j, mat_inverse(transpose(apply_conjugation(apply_tau(g))))), j),
        "real_antiinvolution": mat_mul(mat_mul(j, transpose(apply_conjugation(apply_tau(g)))), j),
        "symmetric_antiinvolution": mat_mul(mat_mul(j, mat_inverse(g)), j),
    }


ANTI_INVOLUTIONS = {"real_antiinvolution": real_antiinvolution, "symmetric_antiinvolution": symmetric_antiinvolution}


@pytest.mark.parametrize("name", form_names())
def test_involutions_match_j_product_formulas(name):
    form = form_action(name)
    identity = identity_loop(name, form.n)
    for seed in range(20):
        g = mat_mul(
            mat_mul(random_real_loop(form, seed), random_k_loop(form, seed + 1)), random_polynomial_loop(form, seed + 2)
        )
        for method, want in involution_formulas(form, g).items():
            got = ANTI_INVOLUTIONS[method](form, g) if method in ANTI_INVOLUTIONS else getattr(form, method)(g)
            assert got.form == want.form and loops_equal(got, want), (name, seed, method)
        # each anti-involution is its involution inverted
        assert loops_equal(mat_mul(form.real_involution(g), real_antiinvolution(form, g)), identity), (name, seed)
        assert loops_equal(mat_mul(form.symmetric_involution(g), symmetric_antiinvolution(form, g)), identity)


def test_real_and_symmetric_antiinvolutions_agree_on_based_loops():
    # on based unitary-symmetric loops the two anti-involutions coincide
    for name in ("gl2_split", "gl3_split"):
        form = form_action(name)
        for lam in [(0,) * form.n, (2, 0) + (0,) * (form.n - 2), (1, 1) + (0,) * (form.n - 2)]:
            c = geodesic_representative(form, lam)
            assert loops_equal(real_antiinvolution(form, c), symmetric_antiinvolution(form, c))


def test_split_real_loops_and_geodesics_invert_nothing(monkeypatch):
    # on a split form theta_R only conjugates and reverses time, so the real generator's
    # fixed-point test and the geodesic check c = theta_R(c) t^lam build no inverse
    inverse, calls = loopmatrix.mat_inverse, []
    monkeypatch.setattr(loopmatrix, "mat_inverse", lambda g: calls.append(g.form) or inverse(g))
    for seed in range(20):
        random_real_loop("gl2_split", seed), random_real_loop("sl3_split", seed)
    for lam in [(0, 0, 0), (1, 1, 0), (3, 1, -2), (2, 1, 1)]:
        geodesic_representative("gl3_split", lam)
    assert calls == []
    random_real_loop("u11", 0)  # a unitary form's theta_R inverts once: the counter sees it
    assert calls == ["u11"]


def _theta_r_without_conjugation(form, g):
    """theta_R with the coefficient conjugation dropped: t -> 1/t only, after J (g^T)^-1 J on a unitary form."""
    return apply_tau(g if form.family == "split" else loopmatrix._turn(mat_inverse(transpose(g))))


def _failing_real_seeds(name):
    """The seeds in 0-39 whose real loop of ``name`` fails its fixed-point postcondition."""
    failed = []
    for seed in range(40):
        try:
            random_real_loop(name, seed)
        except TheoremViolationError as error:
            assert str(error) == "generated loop failed its real symmetry postcondition"
            failed.append(seed)
    return failed


def test_theta_r_without_conjugation_fails_the_unitary_generators_and_the_geodesic_check(monkeypatch):
    assert _failing_real_seeds("u11") == _failing_real_seeds("u21") == []
    monkeypatch.setattr(loopmatrix.FormAction, "real_involution", _theta_r_without_conjugation)
    assert _failing_real_seeds("u11") and _failing_real_seeds("u21")
    for name, lam in (("gl2_split", (1, 1)), ("gl3_split", (1, 1, 0))):
        with pytest.raises(TheoremViolationError, match="failed its exact multiplication check"):
            geodesic_representative(name, lam)


# the seeded real loops of a split form have real entries symmetric under t <-> 1/t, so conjugation alone
# and t -> 1/t alone fix them; ``wide_real_loop`` samples the rest of LG_R
WIDE_FORMS = ("gl2_split", "gl3_split", "sl2_split", "sl3_split")
_ANTI_PRODUCT = loopmatrix.FormAction._anti_product


@functools.lru_cache(maxsize=None)
def _wide_cases(name):
    """60 wide real loops r of a split form, each with the seeded loop g of ``check`` at seed 7 that it
    moves, the 12 of them in turn."""
    form, rng = form_action(name), random.Random(f"wide:{name}")
    seeded = [laws.seeded_loop(form, 7, i) for i in range(12)]
    return [(wide_real_loop(form, rng), seeded[i % 12]) for i in range(60)]


def _r_orbit_outcomes(loops):
    """The R-orbit invariant of each loop, or the text of the theorem violation it raises."""
    out = []
    for g in loops:
        try:
            out.append(r_orbit_invariant(g))
        except TheoremViolationError as error:
            out.append(str(error))
    return out


def _unbarred_anti_product(form, g, real):
    """``FormAction._anti_product`` on a split form with the bar's conjugation dropped from its real branch:
    a(g) is adj(g) t^-e with t -> 1/t only."""
    if not real:
        return _ANTI_PRODUCT(form, g, real)
    cols, scales = loopmatrix._int_rows(zip(*g.entries))
    adj, det = loopmatrix._adjugate([*zip(*cols)])
    e = form._checked_det(det, scales)
    left = [[{e - x: pair for x, pair in p.items()} for p in row] for row in adj]
    return [[loopmatrix._raw_dot(zip(row, col)) for row in left] for col in cols], form.symmetrized_exponent(e)


@pytest.mark.parametrize("name", WIDE_FORMS)
def test_wide_real_loops_are_real_and_keep_the_r_orbit_of_the_seeded_loops(name):
    form, cases = form_action(name), _wide_cases(name)
    seeded = [g for _, g in cases[:12]]
    products = [mat_mul(r, g) for r, g in cases]
    assert all(loops_equal(form.real_involution(r), r) for r, _ in cases)
    r_invariants, k_invariants = [r_orbit_invariant(rg) for rg in products], [k_orbit_invariant(rg) for rg in products]
    assert r_invariants == [r_orbit_invariant(g) for g in seeded] * 5
    # not vacuous: left multiplication by r moves the K-orbit of g on most samples
    assert sum(map(ne, k_invariants, [k_orbit_invariant(g) for g in seeded] * 5)) > 40
    # the inequality of ``laws.intersection`` on r g: its R-orbit index below its K-orbit index
    spec = catalog(form.entry).spec
    assert all(k_leq(spec, form.to_entry(lam), form.to_entry(mu)) for lam, mu in zip(r_invariants, k_invariants))


@pytest.mark.parametrize("name", WIDE_FORMS)
def test_wide_real_loops_catch_theta_r_without_conjugation_and_an_unbarred_anti_product(name, monkeypatch):
    # each fault passes the seeded real loops of ``check``; the wide ones catch it by theta_R's fixed points
    # and by R-orbit invariance alone
    form, cases = form_action(name), _wide_cases(name)
    unconjugated = sum(not loops_equal(_theta_r_without_conjugation(form, r), r) for r, _ in cases)
    monkeypatch.setattr(loopmatrix.FormAction, "_anti_product", _unbarred_anti_product)
    # on the seeded loops of ``check`` only its geodesic pairing sees the unbarred product
    assert laws.matrix_invariance(form, 7, 12) == "geodesic duality pairing fails"
    moved = _r_orbit_outcomes(mat_mul(r, g) for r, g in cases)
    unbarred = sum(map(ne, moved, _r_orbit_outcomes(g for _, g in cases[:12]) * 5))
    assert unconjugated >= 5 and unbarred >= 5, (unconjugated, unbarred)


# ---------------------------------------------------------------------------
# stratum invariant


def minors_valuation_oracle(g):
    """Independent stratum computation: valuations of gcds of k x k minors."""
    shift = max(0, -min_valuation(g))
    rows = [[p * LaurentPoly.t_power(shift) for p in row] for row in g.entries]
    n = g.n
    prev = 0
    out = []
    for k in range(1, n + 1):
        best = None
        for rsel in combinations(range(n), k):
            for csel in combinations(range(n), k):
                sub = lm_from_rows(g.form, [[rows[i][j] for j in csel] for i in rsel])
                d = determinant(sub)
                if not d.is_zero():
                    v = d.valuation()
                    best = v if best is None else min(best, v)
        out.append(best - prev)
        prev = best
    return tuple(v - shift for v in sorted(out, reverse=True))


def test_stratum_examples():
    assert stratum_invariant(identity_loop("gl2_split", 2)) == (0, 0)
    assert stratum_invariant(diagonal_loop("gl2_split", (2, -1))) == (2, -1)
    assert stratum_invariant(upper_unipotent("gl2_split", t_pow(-1))) == (1, -1)


def test_stratum_matches_minors_oracle_on_random_loops():
    for name in ("gl2_split", "gl3_split", "u11", "u21"):
        form = form_action(name)
        for seed in range(12):
            g = mat_mul(
                mat_mul(random_polynomial_loop(form, seed), diagonal_loop(name, (1,) + (0,) * (form.n - 1))),
                random_polynomial_loop(form, seed + 100, negative=True),
            )
            assert stratum_invariant(g) == minors_valuation_oracle(g), (name, seed)


def test_stratum_invariance_under_polynomial_loops():
    form = form_action("gl2_split")
    g = upper_unipotent("gl2_split", t_pow(-1))
    for seed in range(8):
        a = random_polynomial_loop(form, seed)
        b = random_polynomial_loop(form, seed + 50)
        assert stratum_invariant(mat_mul(mat_mul(a, g), b)) == (1, -1)


# ---------------------------------------------------------------------------
# splitting type


def test_splitting_examples():
    assert splitting_type(diagonal_loop("gl3_split", (2, 0, -1))) == (2, 0, -1)
    assert splitting_type(diagonal_loop("gl3_split", (-1, 2, 0))) == (2, 0, -1)
    assert splitting_type(upper_unipotent("gl2_split", t_pow(-1))) == (0, 0)
    shear = lm_from_rows("gl2_split", [[t_pow(1), ONE], [ZERO, t_pow(-1)]])
    assert splitting_type(shear) == (0, 0)
    assert stratum_invariant(shear) == (1, -1)


def _no_progress_kernel(m):
    """A stand-in for the kernel step that never lowers a column degree."""
    return [(1, 0)] + [(0, 0)] * (len(m) - 1)


def test_splitting_step_without_progress_is_a_theorem_violation(monkeypatch):
    import matsuki.loopmatrix as loopmatrix

    calls = []
    monkeypatch.setattr(loopmatrix, "_kernel_vector", lambda m: calls.append(m) or _no_progress_kernel(m))
    # column degrees that sum to the determinant's exponent need no kernel solve
    assert splitting_type(identity_loop("gl2_split", 2)) == (0, 0)
    assert splitting_type(diagonal_loop("gl3_split", (2, -1, 0))) == (2, 0, -1)
    assert calls == []
    # the shear's column degrees 1 and 0 sum above its exponent 0, so a step must lower one of them
    shear = lm_from_rows("gl2_split", [[t_pow(1), ONE], [ZERO, t_pow(-1)]])
    no_progress = r"^column reduction did not lower column 0 at column degrees \(1, 0\)$"
    with pytest.raises(TheoremViolationError, match=no_progress):
        splitting_type(shear)
    assert len(calls) == 1
    # a kernel solve that finds the leading coefficients nonsingular above the exponent is one too
    monkeypatch.setattr(loopmatrix, "_kernel_vector", lambda m: None)
    with pytest.raises(TheoremViolationError, match=r"^column reduction found nonsingular leading coefficients"):
        splitting_type(shear)


def test_a_reduction_that_ends_below_its_exponent_is_a_theorem_violation():
    import matsuki.loopmatrix as loopmatrix

    # [[t^2, 1], [0, t^-2]] reduces in one step that lowers its first column by 2, past the exponent 1
    columns = [[{2: (1, 0)}, {}], [{0: (1, 0)}, {-2: (1, 0)}]]
    below = r"^partial indices \(0, 0\) do not sum to the determinant exponent 1$"
    with pytest.raises(TheoremViolationError, match=below):
        loopmatrix._splitting(columns, 1)


def test_determinantal_divisors_out_of_chain_are_a_theorem_violation(monkeypatch):
    raw_det = loopmatrix._raw_det  # a determinant one power of t too low
    monkeypatch.setattr(loopmatrix, "_raw_det", lambda rows: {e - 1: c for e, c in raw_det(rows).items()})
    # the identity's least entry valuation d_1 = 0 is now above its exponent d_2 = -1
    chain = r"^determinantal divisors \(0, 0, -1\) do not form a divisibility chain$"
    with pytest.raises(TheoremViolationError, match=chain):
        stratum_invariant(identity_loop("gl2_split", 2))


def gaussian_kernel_vector(m):
    """A nonzero v with m v = 0 for a square matrix m over Q(i), its entries
    (re, im) pairs, as (re, im) Fraction pairs, or None when m is nonsingular
    (Gauss-Jordan elimination up to the first free column)."""
    n = len(m)
    rows = [[(Fraction(a), Fraction(b)) for a, b in r] for r in m]
    for col in range(n):
        p = next((i for i in range(col, n) if any(rows[i][col])), None)
        if p is None:
            # columns before col are pivots with unit entries on the diagonal
            return [(-rows[i][col][0], -rows[i][col][1]) for i in range(col)] + [(1, 0)] + [(0, 0)] * (n - col - 1)
        rows[col], rows[p] = rows[p], rows[col]
        inv = pair_quotient((1, 0), rows[col][col])
        pivot = rows[col] = [pair_product(x, inv) for x in rows[col]]
        for i in range(n):
            f = rows[i][col]
            if i != col and any(f):
                rows[i] = [pair_sum(x, pair_product((-f[0], -f[1]), y)) for x, y in zip(rows[i], pivot)]
    return None


def _gaussian_integer_matrices():
    """1x1 to 3x3 matrices of pairs (a, b) = a + b*i: any entries, or singular
    by construction, with one column a combination of the others or rank one."""
    from hypothesis import strategies as st

    pair = st.tuples(st.integers(-6, 6), st.integers(-6, 6))

    @st.composite
    def build(draw):
        n = draw(st.integers(1, 3))
        m = [[draw(pair) for _ in range(n)] for _ in range(n)]
        shape = draw(st.sampled_from(("any", "dependent column", "rank one")))
        if shape == "dependent column":
            k = draw(st.integers(0, n - 1))
            c = [draw(pair) for _ in range(n)]
            for row in m:
                row[k] = (
                    sum(x * p - y * q for j, ((x, y), (p, q)) in enumerate(zip(row, c)) if j != k),
                    sum(x * q + y * p for j, ((x, y), (p, q)) in enumerate(zip(row, c)) if j != k),
                )
        elif shape == "rank one":
            u, w = [draw(pair) for _ in range(n)], [draw(pair) for _ in range(n)]
            m = [[(a * c - b * d, a * d + b * c) for c, d in w] for a, b in u]
        return m

    return build()


def test_kernel_vector_matches_gaussian_oracle():
    from hypothesis import given, settings

    import matsuki.loopmatrix as loopmatrix

    @settings(max_examples=300, deadline=None)
    @given(_gaussian_integer_matrices())
    def agree(m):
        v = loopmatrix._kernel_vector(m)
        want = gaussian_kernel_vector(m)
        if want is None:
            assert v is None
            return
        assert v is not None and any(a or b for a, b in v)
        assert gcd(*(x for pair in v for x in pair)) == 1
        for row in m:
            total = (0, 0)
            for x, y in zip(row, v):
                total = pair_sum(total, pair_product(x, y))
            assert total == (0, 0)
        # proportional: every 2x2 cross product vanishes
        for i, j in combinations(range(len(m)), 2):
            assert pair_product(v[i], want[j]) == pair_product(v[j], want[i])

    agree()


def test_column_reduction_builds_no_gaussian_per_step(monkeypatch):
    import matsuki.loopmatrix as loopmatrix

    made = 0
    make = loopmatrix._make

    def counting_make(*fields):
        nonlocal made
        made += 1
        return make(*fields)

    monkeypatch.setattr(loopmatrix, "_make", counting_make)
    counts = []
    for terms in (10, 50):
        g = dense_unipotent(terms)
        made = 0
        assert splitting_type(g) == (0, 0, 0) and r_orbit_invariant(g) == (0, 0, 0)
        counts.append(made)
    # the Gaussians are built at the boundary (determinants), not per reduction step
    assert counts[0] == counts[1]


def test_column_reduction_keeps_numerators_small(monkeypatch):
    import matsuki.loopmatrix as loopmatrix

    kernel = loopmatrix._kernel_vector
    widest = 0

    def recording_kernel(m):
        nonlocal widest
        widest = max([widest] + [abs(x).bit_length() for row in m for pair in row for x in pair])
        return kernel(m)

    monkeypatch.setattr(loopmatrix, "_kernel_vector", recording_kernel)
    form, h = form_action("gl3_split"), dense_unipotent(20)
    g = mat_mul(symmetric_antiinvolution(form, h), h)
    assert splitting_type(g) == (0, 0, 0)
    # without dividing out each updated column's content the leads reach 10,025 bits
    assert widest < 2000


class _IntegerEchelon:
    """Incremental fraction-free row echelon over the integers: exact rank.

    A pivot row is stored from its leading column on; the columns before it
    are zero, so reductions touch only the remaining tail."""

    def __init__(self):
        self.pivots: dict[int, list[int]] = {}
        self.rank = 0

    def add_row(self, row: list[int]) -> None:
        lead = 0
        while True:
            skip = next((i for i, x in enumerate(row) if x), None)
            if skip is None:
                return
            if skip:
                row = row[skip:]
                lead += skip
            piv = self.pivots.get(lead)
            if piv is None:
                g = gcd(*row)
                if g > 1:
                    row = [x // g for x in row]
                if row[0] < 0:
                    row = [-x for x in row]
                self.pivots[lead] = row
                self.rank += 1
                return
            a, b = piv[0], row[0]
            row = [a * x - b * y for x, y in zip(row, piv)]
            g = gcd(*row)
            if g > 1:
                row = [x // g for x in row]


def section_count_splitting(g):
    """Reference splitting type from section counts, independent of column reduction.

    For each twist k the space of polynomial vectors v with all powers of g*v
    bounded by k has dimension sum_i max(0, k - a_i + 1) for the splitting
    multiset (a_i); the multiset is read off the jumps of that dimension over
    a window of twists.  Ranks are exact: the complex system is realified and
    reduced by integer echelon.
    """
    [(det_exp, _)] = determinant(g).items()
    n = g.n
    ginv = mat_inverse(g)
    k_lo = min_valuation(g)  # no section below the minimal valuation
    k_hi = -min_valuation(ginv)  # dual bound through the inverse
    if k_hi < k_lo:
        raise TheoremViolationError(f"splitting window [{k_lo}, {k_hi}] is empty")
    cap = max(0, k_hi + max_degree(ginv))  # deg v <= k + deg(g^-1) <= cap
    unknowns = n * (cap + 1)
    top = max_degree(g) + cap

    echelon = _IntegerEchelon()
    exponent = top
    dims: dict[int, int] = {}
    # per output coordinate i and each j: (column of the constant term of v_j, terms of g_ij)
    terms = [[(j * (cap + 1), p.items()) for j, p in enumerate(row)] for row in g.entries]

    def add_constraints_at(e: int) -> None:
        # coefficient of t^e in (g @ v), one complex row per output coordinate,
        # realified over the common denominator of its Gaussian coefficients;
        # the term c*t^f of g_ij meets the t^(e-f) coefficient of v_j
        for row_terms in terms:
            hits = [
                (col + e - f, c) for col, items in row_terms for f, c in items if 0 <= e - f <= cap
            ]
            if not hits:
                continue
            denom = 1
            for _, c in hits:
                if denom % c.d:
                    denom = denom * c.d // gcd(denom, c.d)
            re_row = [0] * (2 * unknowns)
            im_row = [0] * (2 * unknowns)
            for col, c in hits:
                m = denom // c.d
                x, y = c.a * m, c.b * m
                re_row[2 * col], re_row[2 * col + 1] = x, -y
                im_row[2 * col], im_row[2 * col + 1] = y, x
            echelon.add_row(re_row)
            echelon.add_row(im_row)

    for k in range(k_hi, k_lo - 2, -1):
        while exponent > k:
            add_constraints_at(exponent)
            exponent -= 1
        if echelon.rank % 2:
            raise TheoremViolationError(f"realified constraint rank {echelon.rank} is odd")
        dims[k] = unknowns - echelon.rank // 2

    if dims[k_lo - 1] != 0:
        raise TheoremViolationError("splitting window exhausted below the lower bound")
    exponents: list[int] = []
    prev_count = 0
    for k in range(k_lo, k_hi + 1):
        count = dims[k] - dims[k - 1]
        exponents.extend([k] * (count - prev_count))
        prev_count = count
    if prev_count != n or sum(exponents) != det_exp:
        raise TheoremViolationError("splitting window exhausted before recovery")
    return tuple(sorted(exponents, reverse=True))


def _raw_and_symmetrized(form, seed):
    """m * real * k * b for seeded factors, with its symmetrized and
    real-symmetrized loops."""
    g = mat_mul(
        mat_mul(random_polynomial_loop(form, seed, negative=True), random_real_loop(form, seed + 1)),
        mat_mul(random_k_loop(form, seed + 2), random_polynomial_loop(form, seed + 3)),
    )
    return g, mat_mul(symmetric_antiinvolution(form, g), g), mat_mul(real_antiinvolution(form, g), g)


@pytest.mark.parametrize("name", form_names())
def test_splitting_matches_section_count_oracle(name):
    from hypothesis import given, settings
    from hypothesis import strategies as st

    form = form_action(name)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10**6))
    def agree(seed):
        for g in _raw_and_symmetrized(form, seed):
            assert splitting_type(g) == section_count_splitting(g)

    agree()


def _known_answer_coweights(form):
    """Desk-scale coweights of the form's size, plus entries up to +-300 in
    gl2 and gl3; special forms get coordinate sum zero."""
    n = form.n
    lams = [tuple((3 * s + 2 * i) % 7 - 3 for i in range(n)) for s in range(6)]
    if form.name in ("gl2_split", "gl3_split"):
        lams += [(300, -300) + (0,) * (n - 2), (-300,) + (0,) * (n - 2) + (300,), (-299,) + (300,) * (n - 1)]
    if form.special:
        lams = [lam[:-1] + (-sum(lam[:-1]),) for lam in lams]
    return lams


@pytest.mark.parametrize("name", form_names())
def test_stratum_known_answers(name):
    form = form_action(name)
    for seed, lam in enumerate(_known_answer_coweights(form)):
        a = random_polynomial_loop(form, seed)
        b = random_polynomial_loop(form, seed + 100)
        g = mat_mul(mat_mul(a, diagonal_loop(name, lam)), b)
        assert stratum_invariant(g) == tuple(sorted(lam, reverse=True)), (name, seed, lam)


@pytest.mark.parametrize("name", form_names())
def test_splitting_known_answers(name):
    form = form_action(name)
    for seed, lam in enumerate(_known_answer_coweights(form)):
        m = random_polynomial_loop(form, seed, negative=True)
        b = random_polynomial_loop(form, seed + 100)
        g = mat_mul(mat_mul(m, diagonal_loop(name, lam)), b)
        assert splitting_type(g) == tuple(sorted(lam, reverse=True)), (name, seed, lam)


def test_section_count_oracle_examples():
    assert section_count_splitting(diagonal_loop("gl3_split", (-1, 2, 0))) == (2, 0, -1)
    shear = lm_from_rows("gl2_split", [[t_pow(1), ONE], [ZERO, t_pow(-1)]])
    assert section_count_splitting(shear) == (0, 0)


def test_splitting_invariance_two_sided():
    shear = lm_from_rows("gl2_split", [[t_pow(1), ONE], [ZERO, t_pow(-1)]])
    form = form_action("gl2_split")
    for seed in range(8):
        a = random_polynomial_loop(form, seed, negative=True)
        b = random_polynomial_loop(form, seed + 50)
        assert splitting_type(mat_mul(mat_mul(a, shear), b)) == (0, 0)


def test_birkhoff_below_cartan_on_samples():
    from matsuki.rootdata import dominance_leq, gl_datum

    form = form_action("gl2_split")
    for seed in range(10):
        g = mat_mul(
            mat_mul(random_polynomial_loop(form, seed, negative=True), upper_unipotent("gl2_split", t_pow(-1))),
            random_polynomial_loop(form, seed + 31),
        )
        assert dominance_leq(gl_datum(2), splitting_type(g), stratum_invariant(g))


# ---------------------------------------------------------------------------
# orbit invariants


def test_k_orbit_examples():
    assert k_orbit_invariant(identity_loop("gl2_split", 2)) == (0, 0)
    assert k_orbit_invariant(diagonal_loop("gl2_split", (2, 1))) == (4, 2)
    # constant orthogonal matrix: symmetrization is the identity
    rot = lm_from_rows(
        "gl2_split",
        [
            [LaurentPoly.constant(Gaussian(3, 0, 5)), LaurentPoly.constant(Gaussian(4, 0, 5))],
            [LaurentPoly.constant(Gaussian(-4, 0, 5)), LaurentPoly.constant(Gaussian(3, 0, 5))],
        ],
    )
    assert k_orbit_invariant(rot) == (0, 0)


def test_r_orbit_examples():
    const = lm_from_rows("gl2_split", [[ONE, LaurentPoly.constant(3)], [ZERO, ONE]])
    assert r_orbit_invariant(const) == (0, 0)
    c = geodesic_representative("gl2_split", (1, 1))
    assert r_orbit_invariant(c) == (1, 1)
    # right polynomial-loop invariance
    g = mat_mul(diagonal_loop("gl2_split", (2, 0)), upper_unipotent("gl2_split", t_pow(1)))
    assert r_orbit_invariant(g) == r_orbit_invariant(diagonal_loop("gl2_split", (2, 0)))


# K-orbit indices of the real loop u = 1 + (t + 1/t) E_1n, whose R-orbit index
# is 0 as u lies in LG_R: the seeded K loops all have R-orbit index 0, so
# neither they nor the laws tell the K-orbit invariant from the R-orbit one
REAL_LOOP_K_INDEX = {"gl2_split": (2, -2), "sl2_split": (2, -2), "gl3_split": (2, 0, -2), "sl3_split": (2, 0, -2)}


def real_loop_misses():
    """The forms of ``REAL_LOOP_K_INDEX`` on which u is not real, or its R-orbit
    index is not 0, or its K-orbit index is not the one listed."""
    missed = []
    for name, k_index in REAL_LOOP_K_INDEX.items():
        form = form_action(name)
        rows = [[ONE if i == j else ZERO for j in range(form.n)] for i in range(form.n)]
        rows[0][-1] = t_pow(1) + t_pow(-1)
        u = lm_from_rows(name, rows)
        if (not loops_equal(form.real_involution(u), u) or loopmatrix.r_orbit_invariant(u) != (0,) * form.n
                or loopmatrix.k_orbit_invariant(u) != k_index):
            missed.append(name)
    return missed


def test_a_real_loop_has_r_orbit_index_zero_and_its_own_k_orbit_index():
    assert real_loop_misses() == []


def test_the_real_loop_catches_k_read_as_r(monkeypatch):
    monkeypatch.setattr(loopmatrix, "k_orbit_invariant", loopmatrix.r_orbit_invariant)
    assert real_loop_misses() == list(REAL_LOOP_K_INDEX)


def test_su21_catalog_involution_matches_u21_matrix_model():
    # the catalog's swap on simple-coroot coordinates, read through the form's
    # map to its entry, is the matrix model's J-twisted reversal: on the
    # diagonal torus, J conj(t^lam)^-T J is t^(-reversed(lam))
    form = form_action("u21")
    spec = catalog("su21").spec
    assert form.entry == "su21"
    for x in range(-3, 4):
        for y in range(-3, 4):
            embedded = (x, y - x, -y)  # x*alpha1_vee + y*alpha2_vee in gl3 coords
            turned = tuple(-a for a in reversed(embedded))
            assert form.to_entry(embedded) == (x, y)
            assert form.to_entry(turned) == spec.apply((x, y))
            assert form.lattice_fixed(embedded) == (turned == embedded)


def test_to_entry_refuses_a_coweight_of_the_wrong_length():
    for name, lam in (("u21", (1, -1)), ("u21", (1, 0, 0, -1)), ("gl2_split", (1,))):
        with pytest.raises(ValidationError, match=r"^coweight must have length \d+"):
            form_action(name).to_entry(lam)


def test_unitary_orbit_invariants_are_lattice_fixed():
    form = form_action("u21")
    theta = catalog("su21").spec.apply
    g = mat_mul(random_real_loop(form, 3), random_polynomial_loop(form, 4))
    for lam in (k_orbit_invariant(g), r_orbit_invariant(g)):
        mu = form.to_entry(lam)
        assert mu is not None and theta(mu) == mu, lam


# ---------------------------------------------------------------------------
# geodesics


def test_geodesic_zero_is_identity():
    assert loops_equal(
        geodesic_representative("gl2_split", (0, 0)), identity_loop("gl2_split", 2)
    )


def test_geodesic_even_entries_are_half_powers():
    assert loops_equal(
        geodesic_representative("gl2_split", (2, 0)), diagonal_loop("gl2_split", (1, 0))
    )


def test_geodesic_odd_pair_multiplies_back():
    form = form_action("gl2_split")
    c = geodesic_representative(form, (1, 1))
    lhs = mat_mul(real_antiinvolution(form, c), c)
    assert loops_equal(lhs, diagonal_loop("gl2_split", (1, 1)))
    assert k_orbit_invariant(c) == (1, 1)


def test_geodesic_parity_obstruction():
    with pytest.raises(ValidationError, match="parity"):
        geodesic_representative("gl2_split", (1, 0))
    with pytest.raises(ValidationError, match="parity"):
        geodesic_representative("gl3_split", (3, 2, 2))


def test_geodesic_rejects_non_dominant_and_unitary_forms():
    with pytest.raises(ValidationError, match="dominant"):
        geodesic_representative("gl2_split", (0, 2))
    with pytest.raises(ValidationError, match="split"):
        geodesic_representative("u11", (1, -1))


def test_geodesic_refuses_a_coweight_of_the_wrong_length():
    message = r"^\(1,\) is not an orbit index for gl2_split: coweight must have length 2$"
    with pytest.raises(ValidationError, match=message):
        geodesic_representative("gl2_split", (1,))


def test_a_geodesic_that_fails_its_multiplication_check_is_a_theorem_violation(monkeypatch):
    diagonal = loopmatrix.diagonal_loop
    # the check compares against t^(lam + (2, 0)): the construction is exact, so it must refuse
    monkeypatch.setattr(loopmatrix, "diagonal_loop", lambda name, lam: diagonal(name, (lam[0] + 2, *lam[1:])))
    failed = r"^geodesic construction for \(1, 1\) failed its exact multiplication check$"
    with pytest.raises(TheoremViolationError, match=failed):
        geodesic_representative("gl2_split", (1, 1))


def test_geodesic_respects_special_form():
    c = geodesic_representative("sl2_split", (1, -1))
    assert r_orbit_invariant(c) == (1, -1)
    with pytest.raises(ValidationError, match="sum zero"):
        geodesic_representative("sl2_split", (2, 0))


# ---------------------------------------------------------------------------
# random generators


@pytest.mark.parametrize("name", form_names())
def test_random_loop_postconditions(name):
    form = form_action(name)
    for seed in range(6):
        g = random_real_loop(form, seed)
        assert loops_equal(form.real_involution(g), g)
        k = random_k_loop(form, seed)
        assert loops_equal(form.symmetric_involution(k), k)
        p = random_polynomial_loop(form, seed)
        assert min_valuation(p) >= 0 or loops_equal(p, identity_loop(name, form.n))
        m = random_polynomial_loop(form, seed, negative=True)
        assert max_degree(m) <= 0
    if form.n > 1:  # membership is a fixed point: a polynomial unipotent is fixed by neither involution
        rows = [[ONE if i == j else ZERO for j in range(form.n)] for i in range(form.n)]
        rows[0][-1] = t_pow(1, 1, 1)
        u = lm_from_rows(name, rows)
        assert not loops_equal(form.real_involution(u), u) and not loops_equal(form.symmetric_involution(u), u)


def _negative_powers(factor):
    """A factor drawer whose factors are those of ``factor`` with t replaced by 1/t."""
    return lambda form, rng: apply_tau(lm_from_rows(form.name, factor(form, rng))).entries


@pytest.mark.parametrize("seed, make, target, fault, message", [
    (2, random_real_loop, "_real_factor", loopmatrix._polynomial_factor,
     "generated loop failed its real symmetry postcondition"),
    (1, random_k_loop, "_k_factor", loopmatrix._polynomial_factor,
     "generated loop failed its symmetric-subgroup postcondition"),
    (0, lambda name, seed: random_polynomial_loop(name, seed, negative=True), "apply_tau", lambda g: g,
     "negative polynomial loop has positive powers"),
    (0, random_polynomial_loop, "_polynomial_factor", _negative_powers(loopmatrix._polynomial_factor),
     "polynomial loop has negative powers"),
], ids=["real", "k", "negative", "polynomial"])
def test_a_seeded_loop_that_fails_its_postcondition_is_a_theorem_violation(monkeypatch, seed, make, target, fault,
                                                                          message):
    monkeypatch.setattr(loopmatrix, target, fault)
    with pytest.raises(TheoremViolationError, match=f"^{message}$"):
        make("gl2_split", seed)


def test_random_loops_are_deterministic():
    form = form_action("gl2_split")
    assert loops_equal(random_real_loop(form, 17), random_real_loop(form, 17))
    assert loops_equal(random_k_loop(form, 17), random_k_loop(form, 17))
    assert loops_equal(random_polynomial_loop(form, 17), random_polynomial_loop(form, 17))


def test_seeded_loops_are_pinned_beyond_the_golden_seeds():
    # seeds 0-99 reach every factor kind, the K factor's reflection and the negative polynomial branch
    digest = hashlib.sha256()
    for name in form_names():
        for seed in range(100):
            for g in (random_real_loop(name, seed), random_k_loop(name, seed), random_polynomial_loop(name, seed),
                      random_polynomial_loop(name, seed, negative=True)):
                digest.update(format_matrix(g).encode())
    assert digest.hexdigest() == "621e982469d5fb3d6a010976cbab674fb489269aae4a84133ef860dcd03163c3"


class _ScriptedRng:
    """An rng whose ``random`` opens the first branch and whose ``choice`` returns the scripted picks in turn."""

    def __init__(self, *picks):
        self.picks = list(picks)

    def random(self):
        return 0.0

    def choice(self, options):
        pick = self.picks.pop(0)
        assert pick in options
        return pick


@pytest.mark.parametrize("name, position", [("u11", (0, 1)), ("u21", (0, 1)), ("u21", (0, 2)), ("u21", (1, 2))])
def test_unitary_real_factor_is_the_exponential_of_its_nilpotent(name, position):
    # X = c t^k E_ij - conj(c) t^-k E_(n-1-j)(n-1-i) for every c and k the factor draws; X^3 = 0, so exp(X) is exact
    form, (i, j) = form_action(name), position
    n, half = form.n, Gaussian(1, 0, 2)
    for re, im, k in product((-1, 0, 1), (-1, 0, 1), (0, 1)):
        rng = _ScriptedRng(position, re, im, k)
        factor = lm_from_rows(name, loopmatrix._real_factor(form, rng))
        assert rng.picks == []
        a, b = (re, im) if re or im else (1, 0)  # c = 0 is drawn as 1
        rows = [[ZERO] * n for _ in range(n)]
        rows[i][j] = t_pow(k, a, b)
        rows[n - 1 - j][n - 1 - i] += t_pow(-k, -a, b)
        x = lm_from_rows(name, rows)
        x2 = mat_mul(x, x)
        assert loops_equal(mat_mul(x2, x), lm_from_rows(name, [[ZERO] * n] * n))
        exp_x = [
            [(ONE if r == s else ZERO) + x.entries[r][s] + x2.entries[r][s].scale(half) for s in range(n)]
            for r in range(n)
        ]
        assert loops_equal(factor, lm_from_rows(name, exp_x)), (re, im, k)


def test_zero_factor_seed_gives_identity():
    # some seed draws zero factors; scan a few to find one
    form = form_action("gl2_split")
    hits = [
        s for s in range(40) if loops_equal(random_real_loop(form, s), identity_loop("gl2_split", 2))
    ]
    assert hits, "no zero-factor seed in range"


@pytest.mark.parametrize("name", form_names())
def test_loops_copy_and_pickle(name):
    form = form_action(name)
    g = mat_mul(mat_mul(random_real_loop(form, 3), random_k_loop(form, 3)), random_polynomial_loop(form, 3))
    for twin in (copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
        assert twin == g and loops_equal(twin, g)
        assert format_matrix(twin) == format_matrix(g)


# ---------------------------------------------------------------------------
# golden output

GOLDEN_LOOPS = Path(__file__).resolve().parent / "golden" / "loops_forms_seed0-2.txt"


def loops_forms_report() -> str:
    """For each form and seeds 0-2, g = real*k*poly printed with ``format_matrix``,
    then its symmetrized and real-symmetrized loops, then its stratum,
    splitting, K-orbit and R-orbit invariants."""
    parts = []
    for name in form_names():
        form = form_action(name)
        for seed in range(3):
            g = mat_mul(mat_mul(random_real_loop(form, seed), random_k_loop(form, seed)), random_polynomial_loop(form, seed))
            parts += [
                f"# {name} seed {seed}: g, symmetrize(g), real_antiinvolution(g)*g\n",
                format_matrix(g),
                format_matrix(mat_mul(symmetric_antiinvolution(form, g), g)),
                format_matrix(mat_mul(real_antiinvolution(form, g), g)),
                f"invariants: {stratum_invariant(g)} {splitting_type(g)} "
                f"{k_orbit_invariant(g)} {r_orbit_invariant(g)}\n",
            ]
    return "".join(parts)


def test_golden_loops_forms_output():
    # pins the printed coefficients of derived loops, not only their invariants
    assert loops_forms_report() == GOLDEN_LOOPS.read_text(encoding="utf-8")
