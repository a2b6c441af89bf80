"""Exact Laurent-matrix arithmetic and the four double-coset invariants."""

from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest

from matsuki.errors import TheoremViolationError, ValidationError
from matsuki.loopmatrix import (
    Gaussian,
    LaurentPoly,
    apply_conjugation,
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
    min_valuation,
    r_orbit_invariant,
    random_k_loop,
    random_polynomial_loop,
    random_real_loop,
    splitting_type,
    stratum_invariant,
)

ONE = LaurentPoly.one()
ZERO = LaurentPoly.zero()


def t_pow(e, re=1, im=0):
    return LaurentPoly.t_power(e, Gaussian(re, im))


def upper_unipotent(form, p):
    return lm_from_rows(form, [[ONE, p], [ZERO, ONE]])


# ---------------------------------------------------------------------------
# arithmetic


def test_gaussian_field_ops():
    a = Gaussian(1, 2)
    b = Gaussian(Fraction(1, 2), -1)
    assert a * b / b == a
    assert a.conjugate().conjugate() == a
    assert not Gaussian(0, 0)
    with pytest.raises(ZeroDivisionError):
        a / Gaussian(0)


def _gaussian_reference_pairs():
    from hypothesis import strategies as st

    part = st.fractions(min_value=-40, max_value=40, max_denominator=36)
    return st.tuples(part, part)


def _assert_normalized(g):
    assert g.d > 0 and gcd(g.a, g.b, g.d) == 1
    assert type(g.re) is Fraction and type(g.im) is Fraction


def test_gaussian_matches_fraction_pair_reference():
    """Integer-triple arithmetic against (re, im) pairs of Fractions."""
    from hypothesis import given, settings

    def ref_mul(p, q):
        return p[0] * q[0] - p[1] * q[1], p[0] * q[1] + p[1] * q[0]

    def ref_div(p, q):
        norm = q[0] * q[0] + q[1] * q[1]
        return (p[0] * q[0] + p[1] * q[1]) / norm, (p[1] * q[0] - p[0] * q[1]) / norm

    @settings(max_examples=300, deadline=None)
    @given(_gaussian_reference_pairs(), _gaussian_reference_pairs())
    def agree(p, q):
        x, y = Gaussian(*p), Gaussian(*q)
        results = [
            (x, p),
            (x + y, (p[0] + q[0], p[1] + q[1])),
            (x - y, (p[0] - q[0], p[1] - q[1])),
            (-x, (-p[0], -p[1])),
            (x * y, ref_mul(p, q)),
            (x.conjugate(), (p[0], -p[1])),
        ]
        if any(q):
            results.append((x / y, ref_div(p, q)))
        else:
            with pytest.raises(ZeroDivisionError):
                x / y
        for got, want in results:
            _assert_normalized(got)
            assert (got.re, got.im) == want
            assert hash(got) == hash(want)
            assert bool(got) == any(want)
        assert (x == y) == (p == q)

    agree()


def test_gaussian_normalization():
    half = Gaussian(Fraction(2, 4))
    assert half == Gaussian(Fraction(1, 2)) and hash(half) == hash(Gaussian(Fraction(1, 2)))
    assert (half.a, half.b, half.d) == (1, 0, 2)
    assert (Gaussian(0).a, Gaussian(0).b, Gaussian(0).d) == (0, 0, 1)
    mixed = Gaussian(Fraction(1, 6), Fraction(-3, 4))  # (2 - 9i)/12
    assert (mixed.a, mixed.b, mixed.d) == (2, -9, 12)
    assert mixed.re == Fraction(1, 6) and mixed.im == Fraction(-3, 4)
    assert half + half == Gaussian(1) and (half + half).d == 1
    with pytest.raises(AttributeError):
        half.a = 2


def test_poly_ring_ops():
    p = LaurentPoly({1: Gaussian(1), -1: Gaussian(1)})
    q = LaurentPoly({0: Gaussian(2)})
    assert (p * q).coeff(1) == Gaussian(2)
    assert p.tau() == p
    assert (p - p).is_zero()
    assert p.valuation() == -1 and p.degree() == 1


def _poly_strategy():
    from hypothesis import strategies as st

    coeff = st.builds(
        Gaussian,
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
        assert (p * q).conjugate() == p.conjugate() * q.conjugate()

    laws()


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
def test_known_determinant_pass_through(name):
    form = form_action(name)
    identity = identity_loop(name, form.n)
    for g in _seeded_unit_loops(form):
        det = form.validate(g)
        assert det == determinant(g).monomial()
        inv = mat_inverse(g, det)
        assert loops_equal(inv, mat_inverse(g))
        assert loops_equal(mat_mul(g, inv), identity)
        assert loops_equal(mat_mul(inv, g), identity)
        assert determinant(form.symmetrize(g, det)).monomial() == form.symmetrized_det(det)
        real_sym = mat_mul(form.real_antiinvolution(g, det), g)
        assert determinant(real_sym).monomial() == form.real_symmetrized_det(det)


@pytest.mark.parametrize(
    "invariant", [stratum_invariant, splitting_type, k_orbit_invariant, r_orbit_invariant]
)
def test_invariants_reject_non_unit_determinant(invariant):
    bad = lm_from_rows("gl2_split", [[ONE + t_pow(1), ZERO], [ZERO, ONE]])  # det = 1 + t
    with pytest.raises(ValidationError, match="determinant"):
        invariant(bad)


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
        assert loops_equal(form.conjugation(form.conjugation(g)), g)
        assert loops_equal(form.symmetric_involution(form.symmetric_involution(g)), g)
        assert loops_equal(
            form.real_antiinvolution(form.real_antiinvolution(g)), g
        )


def test_real_and_symmetric_antiinvolutions_agree_on_based_loops():
    # on based unitary-symmetric loops the two anti-involutions coincide
    for name in ("gl2_split", "gl3_split"):
        form = form_action(name)
        for lam in [(0,) * form.n, (2, 0) + (0,) * (form.n - 2), (1, 1) + (0,) * (form.n - 2)]:
            c = geodesic_representative(form, lam)
            assert loops_equal(form.real_antiinvolution(c), form.symmetric_antiinvolution(c))


# ---------------------------------------------------------------------------
# stratum invariant


def minors_valuation_oracle(g):
    """Independent stratum computation: valuations of gcds of k x k minors."""
    shift = max(0, -min_valuation(g))
    rows = [[p.shift(shift) for p in row] for row in g.entries]
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


def test_splitting_empty_window_is_a_theorem_violation(monkeypatch):
    import matsuki.loopmatrix as loopmatrix

    monkeypatch.setattr(loopmatrix, "min_valuation", lambda g: 10**6)
    with pytest.raises(TheoremViolationError, match="window"):
        splitting_type(identity_loop("gl2_split", 2))


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
            [LaurentPoly.constant(Fraction(3, 5)), LaurentPoly.constant(Fraction(4, 5))],
            [LaurentPoly.constant(Fraction(-4, 5)), LaurentPoly.constant(Fraction(3, 5))],
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


def test_su21_catalog_involution_matches_u21_matrix_model():
    # the catalog's swap on simple-coroot coordinates is the matrix model's
    # negated reversal restricted to the sum-zero sublattice
    from matsuki.realform import catalog

    spec = catalog("su21").spec
    form = form_action("u21")
    theta = form.lattice_involution()
    for x in range(-3, 4):
        for y in range(-3, 4):
            embedded = (x, y - x, -y)  # x*alpha1_vee + y*alpha2_vee in gl3 coords
            swapped = spec.apply((x, y))
            reembedded = (swapped[0], swapped[1] - swapped[0], -swapped[1])
            assert tuple(sum(r * v for r, v in zip(row, embedded)) for row in theta) == reembedded


def test_unitary_orbit_invariants_are_lattice_fixed():
    form = form_action("u21")
    g = mat_mul(random_real_loop(form, 3), random_polynomial_loop(form, 4))
    lam = k_orbit_invariant(g)
    assert form.lattice_fixed(lam)
    mu = r_orbit_invariant(g)
    assert form.lattice_fixed(mu)


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
    lhs = mat_mul(form.real_antiinvolution(c), c)
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
        assert form.is_real_loop(g)
        k = random_k_loop(form, seed)
        assert form.is_symmetric_subgroup_loop(k)
        p = random_polynomial_loop(form, seed)
        assert min_valuation(p) >= 0 or loops_equal(p, identity_loop(name, form.n))
        m = random_polynomial_loop(form, seed, negative=True)
        from matsuki.loopmatrix import max_degree

        assert max_degree(m) <= 0


def test_random_loops_are_deterministic():
    form = form_action("gl2_split")
    assert loops_equal(random_real_loop(form, 17), random_real_loop(form, 17))
    assert loops_equal(random_k_loop(form, 17), random_k_loop(form, 17))
    assert loops_equal(random_polynomial_loop(form, 17), random_polynomial_loop(form, 17))


def test_zero_factor_seed_gives_identity():
    # some seed draws zero factors; scan a few to find one
    form = form_action("gl2_split")
    hits = [
        s for s in range(40) if loops_equal(random_real_loop(form, s), identity_loop("gl2_split", 2))
    ]
    assert hits, "no zero-factor seed in range"
