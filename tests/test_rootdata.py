"""Root-datum arithmetic: axioms, dominance, Weyl elements, Smith normal form."""

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matsuki.errors import ValidationError
from matsuki.rootdata import (
    RootDatum,
    dominance_leq,
    dominant_representative,
    free_monoid_leq,
    gl_datum,
    height,
    identity_matrix,
    integer_solver,
    is_dominant,
    kernel_basis,
    mat_mul,
    mat_vec,
    monoid_order,
    pgl2_datum,
    pi1_of_group,
    positive_coroots,
    quotient_group,
    simple_coroots,
    simple_roots,
    sl2_datum,
    sl2xsl2_datum,
    sl3_datum,
    smith_normal_form,
    validate_root_datum,
    vec_add,
    vec_scale,
    vec_sub,
    weyl_longest_element,
)

ALL_DATA = [sl2_datum(), pgl2_datum(), sl3_datum(), sl2xsl2_datum(), gl_datum(2), gl_datum(3)]
SKEWED_TORUS = RootDatum(rank=2, roots=(), coroots=(), simple_indices=(), name="torus2")


def weyl_orbit(datum, coweight):
    """Brute-force Weyl orbit by closing under simple reflections."""
    seen = {coweight}
    frontier = [coweight]
    while frontier:
        x = frontier.pop()
        for i in datum.simple_indices:
            y = datum.reflect(i, x)
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return seen


def weyl_group_matrices(datum):
    """All Weyl group elements as matrices, by closure under generators."""
    gens = [datum.reflection_matrix(i) for i in datum.simple_indices]
    seen = {identity_matrix(datum.rank)}
    frontier = list(seen)
    while frontier:
        w = frontier.pop()
        for g in gens:
            x = mat_mul(g, w)
            if x not in seen:
                seen.add(x)
                frontier.append(x)
    return seen


# ---------------------------------------------------------------------------
# validation


def test_sl2_datum_valid():
    assert validate_root_datum(sl2_datum()) == []


def test_pairing_violation_reported():
    bad = RootDatum(rank=1, roots=((3,), (-3,)), coroots=((1,), (-1,)), simple_indices=(0,))
    problems = validate_root_datum(bad)
    assert any("pairing" in p for p in problems)


def test_a2_datum_valid_and_reflections_permute_six_coroots():
    datum = sl3_datum()
    assert validate_root_datum(datum) == []
    coroots = set(datum.coroots)
    assert len(coroots) == 6
    for i in datum.simple_indices:
        assert {datum.reflect(i, b) for b in coroots} == coroots


def test_reflection_closure_violation_reported():
    # drop the negative roots: reflections leave the set
    bad = RootDatum(rank=1, roots=((2,),), coroots=((1,),), simple_indices=(0,))
    problems = validate_root_datum(bad)
    assert any("permute" in p for p in problems)


@pytest.mark.parametrize("datum", ALL_DATA, ids=lambda d: d.name)
def test_catalog_data_valid(datum):
    assert validate_root_datum(datum) == []


def test_a_root_outside_the_span_of_the_simple_roots_is_refused():
    # gl2's roots with only one simple root named, and the sum roots +-(1, 1)
    roots = ((1, -1), (-1, 1), (1, 1), (-1, -1))
    datum = RootDatum(rank=2, roots=roots, coroots=roots, simple_indices=(0,), name="half")
    assert validate_root_datum(datum) == [
        "root (1, 1) lies outside the span of the simple roots",
        "root (-1, -1) lies outside the span of the simple roots",
    ]


def test_a_root_off_the_integer_cone_of_the_simple_roots_is_refused():
    # BC1: the half root alpha/2 is in the span of alpha but no integer multiple of it
    datum = RootDatum(rank=1, roots=((2,), (-2,), (1,), (-1,)), coroots=((1,), (-1,), (2,), (-2,)),
                      simple_indices=(0,), name="bc1")
    assert validate_root_datum(datum) == [
        "root (1,) is not a signed non-negative integer combination of simples",
        "root (-1,) is not a signed non-negative integer combination of simples",
    ]


def test_dependent_simple_coroots_are_refused():
    datum = RootDatum(rank=2, roots=((2, 0), (0, 2)), coroots=((1, 0), (2, 0)), simple_indices=(0, 1), name="x")
    with pytest.raises(ValidationError, match="^simple coroots are linearly dependent$"):
        datum.coroot_solver


def test_positive_roots_of_sl3():
    datum = sl3_datum()
    pos = {datum.roots[i] for i in datum.positive_root_indices}
    assert pos == {(2, -1), (-1, 2), (1, 1)}
    assert set(positive_coroots(datum)) == {(1, 0), (0, 1), (1, 1)}


# ---------------------------------------------------------------------------
# dominant representatives


def test_sl2_dominant_representative_of_negative_coroot():
    datum = sl2_datum()
    rep, word = dominant_representative(datum, (-1,))
    assert rep == (1,)
    assert word == (0,)


@pytest.mark.parametrize("datum", ALL_DATA, ids=lambda d: d.name)
def test_dominant_input_returns_empty_word(datum):
    lam = (0,) * datum.rank
    assert dominant_representative(datum, lam) == (lam, ())


def test_a2_dominant_representative_matches_brute_force():
    datum = sl3_datum()
    lam = (-1, 0)  # minus the first simple coroot
    rep, word = dominant_representative(datum, lam)
    orbit = weyl_orbit(datum, lam)
    dominants = {x for x in orbit if is_dominant(datum, x)}
    assert dominants == {rep}
    assert rep == (1, 1)
    # replay the word
    x = lam
    for i in word:
        x = datum.reflect(i, x)
    assert x == rep


def test_dominant_representative_idempotent():
    datum = sl3_datum()
    for vec in product(range(-3, 4), repeat=2):
        rep, _ = dominant_representative(datum, vec)
        again, word = dominant_representative(datum, rep)
        assert again == rep and word == ()


# ---------------------------------------------------------------------------
# dominance order


def test_dominance_examples():
    assert dominance_leq(sl2_datum(), (0,), (2,))
    assert not dominance_leq(pgl2_datum(), (0,), (1,))  # coefficient 1/2
    assert dominance_leq(sl3_datum(), (0, 0), (1, 1))


def test_dominance_outside_coroot_span_is_false():
    datum = gl_datum(2)
    assert not dominance_leq(datum, (0, 0), (1, 1))  # central direction
    assert dominance_leq(datum, (0, 0), (1, -1))


def brute_force_dominance(datum, lower, upper, bound=12):
    diff = vec_sub(upper, lower)
    simples = simple_coroots(datum)
    for coeffs in product(range(bound + 1), repeat=len(simples)):
        total = (0,) * datum.rank
        for c, b in zip(coeffs, simples):
            total = vec_add(total, vec_scale(c, b))
        if total == diff:
            return True
    return False


@settings(max_examples=60, deadline=None)
@given(st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4))
def test_dominance_agrees_with_brute_force_rank2(a, b, c, d):
    for datum in (sl3_datum(), sl2xsl2_datum(), gl_datum(2)):
        assert dominance_leq(datum, (a, b), (c, d)) == brute_force_dominance(datum, (a, b), (c, d))


def gauss_jordan_solve(columns, target):
    """Solve sum_j c_j * columns[j] = target over the rationals by Gauss-Jordan
    elimination on [A | target]; None when target is outside the span of the
    (independent) columns.  Kept apart from ``integer_solver``, which reads
    its solve off the Smith normal form, so the dominance oracle below does
    not check the package against itself."""
    if not columns:
        return () if all(x == 0 for x in target) else None
    m = len(columns[0])
    k = len(columns)
    aug = [[Fraction(columns[j][i]) for j in range(k)] + [Fraction(target[i])] for i in range(m)]
    pivots: list[int] = []
    row = 0
    for col in range(k):
        sel = next(r for r in range(row, m) if aug[r][col] != 0)
        aug[row], aug[sel] = aug[sel], aug[row]
        piv = aug[row][col]
        aug[row] = [x / piv for x in aug[row]]
        for r in range(m):
            if r != row and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[row])]
        pivots.append(row)
        row += 1
    # consistency: rows below the pivot block must have zero rhs
    for r in range(row, m):
        if aug[r][k] != 0:
            return None
    return tuple(aug[pivots[j]][k] for j in range(k))


def coroot_coordinates(datum, vector):
    """Fraction coordinates of a vector in the simple-coroot basis, or None
    outside their span: the oracle for the integer dominance rows."""
    return gauss_jordan_solve(simple_coroots(datum), vector)


def catalog_data():
    from matsuki.realform import catalog, catalog_names

    return [catalog(name).datum for name in catalog_names()]


def test_cold_catalog_lookup_solves_the_simple_roots_once(monkeypatch, cleared_caches):
    from matsuki import rootdata
    from matsuki.realform import catalog

    solved = []
    snf = rootdata.smith_normal_form
    monkeypatch.setattr(rootdata, "smith_normal_form", lambda m: solved.append(m) or snf(m))
    datum = catalog("gl3_split").datum
    # the simple roots, shared by validation and the positive roots, and the kernel of theta - 1
    assert len(solved) == len(set(solved)) == 2
    assert datum.root_solver is datum.root_solver
    dependent = RootDatum(rank=1, roots=((2,), (-2,)), coroots=((1,), (-1,)), simple_indices=(0, 1))
    assert "simple roots are linearly dependent" in validate_root_datum(dependent)


def test_integer_rows_cover_denominators_and_consistency():
    assert pgl2_datum().coroot_solver[0] == 2
    assert gl_datum(3).coroot_solver[2] != ()
    assert SKEWED_TORUS.coroot_solver == (1, (), ((1, 0), (0, 1)))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_integer_dominance_agrees_with_fraction_coordinates(data):
    datum = data.draw(st.sampled_from(catalog_data() + [SKEWED_TORUS]))
    vec = st.tuples(*[st.integers(-6, 6)] * datum.rank)
    lower, upper = data.draw(vec), data.draw(vec)
    coords = coroot_coordinates(datum, vec_sub(upper, lower))
    expected = coords is not None and all(c.denominator == 1 and c >= 0 for c in coords)
    assert dominance_leq(datum, lower, upper) == expected


def test_dominance_rejects_wrong_length():
    with pytest.raises(ValidationError, match="length"):
        dominance_leq(gl_datum(2), (0, 0, 5), (1, -1))
    with pytest.raises(ValidationError, match="length"):
        dominance_leq(gl_datum(2), (1, -1), (0,))
    with pytest.raises(ValidationError) as raised:
        dominance_leq(gl_datum(2), [1, -1], [0, 0, 0])
    assert raised.value.__cause__ is None and raised.value.__suppress_context__
    for lower, upper in ((5, (1, -1)), ((1, -1), None)):  # not iterable: the unpacking's TypeError
        with pytest.raises(TypeError):
            dominance_leq(gl_datum(2), lower, upper)


def test_a_rank_zero_order_compares_the_empty_coweight_alone():
    leq = monoid_order(integer_solver((), 0), 0)
    assert leq((), ()) and leq([], ())
    with pytest.raises(ValidationError, match=r"^\(\) and \(0,\) must both have length rank=0$"):
        leq((), (0,))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_dominance_partial_order_properties(data):
    datum = data.draw(st.sampled_from([sl3_datum(), gl_datum(3)]))
    coords = st.integers(-5, 5)
    vec = st.tuples(*[coords] * datum.rank)
    x, y, z = data.draw(vec), data.draw(vec), data.draw(vec)
    assert dominance_leq(datum, x, x)
    if dominance_leq(datum, x, y) and dominance_leq(datum, y, z):
        assert dominance_leq(datum, x, z)
    if dominance_leq(datum, x, y) and dominance_leq(datum, y, x):
        assert x == y


# ---------------------------------------------------------------------------
# Smith normal form


def test_snf_trivial_cases():
    _, d, _ = smith_normal_form(((2,),))
    assert d == ((2,),)
    _, d, _ = smith_normal_form(((1, 0), (0, 0)))
    assert d == ((1, 0), (0, 0))


def test_snf_divisibility_example():
    m = ((2, 4), (6, 8))
    u, d, v = smith_normal_form(m)
    assert d == ((2, 0), (0, 4))  # gcd of entries, then |det|/gcd
    assert mat_mul(mat_mul(u, m), v) == d


def int_matrices(rows, cols):
    return st.lists(
        st.lists(st.integers(-9, 9), min_size=cols, max_size=cols),
        min_size=rows,
        max_size=rows,
    ).map(lambda m: tuple(map(tuple, m)))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.data())
def test_snf_reconstructs_and_chains(rows, cols, data):
    m = data.draw(int_matrices(rows, cols))
    u, d, v = smith_normal_form(m)
    assert mat_mul(mat_mul(u, m), v) == d
    diag = [d[i][i] for i in range(min(rows, cols))]
    for i in range(rows):
        for j in range(cols):
            if i != j:
                assert d[i][j] == 0
    nonzero = [x for x in diag if x]
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0
    # zeros trail the chain
    if 0 in diag:
        assert all(x == 0 for x in diag[diag.index(0):])


def test_snf_deterministic():
    m = ((2, 4), (6, 8))
    assert smith_normal_form(m) == smith_normal_form(m)


def reference_smith_normal_form(matrix):
    """The three-matrix elimination that the augmented one replaced, kept
    verbatim as the oracle: the same pivots in the same order, so the same
    (U, D, V) bit for bit."""
    rows = [list(r) for r in matrix]
    m = len(rows)
    n = len(rows[0]) if m else 0
    if any(len(r) != n for r in rows):
        raise ValidationError("ragged matrix")
    U = [list(r) for r in identity_matrix(m)]
    V = [list(r) for r in identity_matrix(n)]

    def row_op(i, j, q):  # row_i -= q * row_j
        rows[i] = [a - q * b for a, b in zip(rows[i], rows[j])]
        U[i] = [a - q * b for a, b in zip(U[i], U[j])]

    def col_op(i, j, q):  # col_i -= q * col_j
        for r in rows:
            r[i] -= q * r[j]
        for r in V:
            r[i] -= q * r[j]

    def swap_rows(i, j):
        rows[i], rows[j] = rows[j], rows[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for r in rows:
            r[i], r[j] = r[j], r[i]
        for r in V:
            r[i], r[j] = r[j], r[i]

    t = 0
    while t < min(m, n):
        pivot = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                v = abs(rows[i][j])
                if v and (best is None or v < best):
                    best, pivot = v, (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        dirty = False
        for i in range(t + 1, m):
            if rows[i][t]:
                q = rows[i][t] // rows[t][t]
                row_op(i, t, q)
                if rows[i][t]:
                    dirty = True
        for j in range(t + 1, n):
            if rows[t][j]:
                q = rows[t][j] // rows[t][t]
                col_op(j, t, q)
                if rows[t][j]:
                    dirty = True
        if dirty:
            continue
        # divisibility: pivot must divide the remaining block
        offender = next(
            ((i, j) for i in range(t + 1, m) for j in range(t + 1, n) if rows[i][j] % rows[t][t]),
            None,
        )
        if offender is not None:
            row_op(t, offender[0], -1)  # pull the offending row up, re-eliminate
            continue
        t += 1

    for i in range(min(m, n)):
        if rows[i][i] < 0:
            rows[i] = [-a for a in rows[i]]
            U[i] = [-a for a in U[i]]
    return tuple(map(tuple, U)), tuple(map(tuple, rows)), tuple(map(tuple, V))


def _snf_outcome(snf, matrix):
    """(U, D, V), or the type and message of the error raised."""
    try:
        return snf(matrix)
    except ValidationError as exc:
        return type(exc), str(exc)


def assert_matches_reference(matrix):
    assert _snf_outcome(smith_normal_form, matrix) == _snf_outcome(reference_smith_normal_form, matrix), matrix


# about three entries in four are zero, as in the lattice layer's matrices
SPARSE_ENTRY = st.tuples(st.integers(0, 3), st.integers(-30, 30)).map(lambda p: p[1] if p[0] == 0 else 0)


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 6), st.integers(0, 6), st.sampled_from((0, 0, 0, 0, -1, 1)), st.data())
def test_snf_matches_reference(rows, cols, ragged, data):
    """Shapes 0-6 x 0-6; in about one draw in three a row is one entry
    shorter or longer than the rest, which both must refuse alike."""
    widths = [cols] * rows
    if rows and cols + ragged >= 0:
        widths[data.draw(st.integers(0, rows - 1))] += ragged
    m = tuple(tuple(data.draw(st.lists(SPARSE_ENTRY, min_size=w, max_size=w))) for w in widths)
    assert_matches_reference(m)


def test_snf_matches_reference_on_every_matrix_the_package_builds(monkeypatch, cleared_caches):
    """Every matrix reaching the elimination while a catalog lookup, a poset
    slice, an R-order comparison and the pi1 model run cold on all 10 entries."""
    from matsuki import rootdata
    from matsuki.fundgroup import pi1_model
    from matsuki.orbitposet import build_poset_slice, r_leq
    from matsuki.realform import catalog, catalog_names

    seen = []
    snf = rootdata.smith_normal_form
    monkeypatch.setattr(rootdata, "smith_normal_form", lambda m: seen.append(m) or snf(m))
    for name in catalog_names():
        spec = catalog(name).spec
        build_poset_slice(spec, 6)
        zero = (0,) * spec.datum.rank
        r_leq(spec, zero, zero)
        pi1_model(spec)
    assert seen
    for m in set(seen):
        assert_matches_reference(m)


def test_kernel_basis_of_swap_difference():
    # theta - id for the swap involution on Z^2
    assert kernel_basis(((-1, 1), (1, -1))) == ((1, 1),)


def test_the_kernel_of_a_matrix_with_no_columns_is_zero():
    assert kernel_basis(()) == ()
    assert kernel_basis(((), ())) == ()


# ---------------------------------------------------------------------------
# fundamental group of the ambient group


def test_pi1_examples():
    assert pi1_of_group(sl2_datum()).invariant_factors == ()
    g = pi1_of_group(pgl2_datum())
    assert g.invariant_factors == (2,)
    free = pi1_of_group(gl_datum(1))
    assert free.invariant_factors == (0,)
    assert free.describe() == "Z"


def test_quotient_group_classes():
    group = quotient_group(1, ((2,),))
    assert group.image((1,)) != group.image((0,))
    assert group.image((2,)) == group.image((0,))
    assert group.order() == 2


def test_quotient_factors_form_a_divisibility_chain_with_the_free_ones_last():
    # quotient_group keeps the Smith diagonal's order, which must list the
    # torsion factors as a divisibility chain and then the zeros
    rng = random.Random("quotient-order")
    for _ in range(2000):
        rank = rng.randint(1, 5)
        gens = tuple(tuple(rng.randint(-6, 6) for _ in range(rank)) for _ in range(rng.randint(0, 6)))
        group = quotient_group(rank, gens)
        factors = group.invariant_factors
        torsion = [f for f in factors if f]
        assert all(f >= 2 for f in torsion), gens
        assert all(b % a == 0 for a, b in zip(torsion, torsion[1:])), gens
        assert list(factors) == torsion + [0] * (len(factors) - len(torsion)), gens
        assert len(group.projection) == len(factors), gens
        assert all(group.image(g) == (0,) * len(factors) for g in gens), gens


# ---------------------------------------------------------------------------
# longest Weyl elements


def test_longest_element_empty_and_sl2():
    datum = sl2_datum()
    assert weyl_longest_element(datum, ()) == identity_matrix(1)
    assert weyl_longest_element(datum, (0,)) == ((-1,),)


def test_longest_element_of_a_non_simple_subset_is_refused():
    with pytest.raises(ValidationError, match=r"^subset \(2,\) is not a set of simple indices$"):
        weyl_longest_element(sl3_datum(), (2,))


def test_longest_element_a2_against_brute_force():
    datum = sl3_datum()
    w0 = weyl_longest_element(datum, (0, 1))
    assert mat_vec(w0, (1, 0)) == (0, -1)  # first simple coroot to minus the second
    assert mat_mul(w0, w0) == identity_matrix(2)
    # brute force: the element with the maximal number of inversions
    pos = [datum.coroots[i] for i in datum.positive_root_indices]

    def inversions(w):
        return sum(1 for b in pos if tuple(-x for x in mat_vec(w, b)) in pos)

    best = max(weyl_group_matrices(datum), key=inversions)
    assert inversions(best) == len(pos)
    assert best == w0


def test_weyl_queries_reject_wrong_length():
    # zip truncated a short coweight: the reflection never changed it, so
    # dominant_representative looped for ever and the others answered silently
    datum = sl3_datum()
    for query, coweight in ((dominant_representative, (1,)), (is_dominant, (1, 2, 3)), (height, (1,))):
        with pytest.raises(ValidationError, match="does not have length rank=2"):
            query(datum, coweight)


def test_height_functional():
    assert sl2_datum().two_rho == (2,)
    assert height(sl2_datum(), (1,)) == 2
    assert pgl2_datum().two_rho == (1,)
    assert sl3_datum().two_rho == (2, 2)
    assert gl_datum(3).two_rho == (2, 0, -2)


def solver_coordinates(solver, target):
    """Fraction coordinates from an ``integer_solver`` triple, or None when a
    consistency row does not vanish on the target."""
    den, rows, consistency = solver
    if any(mat_vec(consistency, target)):
        return None
    return tuple(Fraction(c, den) for c in mat_vec(rows, target))


def test_integer_solver_agrees_with_elimination():
    for datum in ALL_DATA + [SKEWED_TORUS]:
        solver = integer_solver(simple_roots(datum), datum.rank)
        targets = (*datum.roots, *datum.coroots, (1,) * datum.rank, (3,) + (-1,) * (datum.rank - 1))
        for target in targets:
            expected = gauss_jordan_solve(simple_roots(datum), target)
            assert solver_coordinates(solver, target) == expected, (datum.name, target)


def test_integer_solver_rejects_dependent_columns():
    with pytest.raises(ValidationError):
        integer_solver(((1, 0), (2, 0)))
    with pytest.raises(ValidationError):
        integer_solver(((1,), (2,)))  # more columns than the dimension
    with pytest.raises(ValidationError):
        integer_solver(())  # no columns and no dimension


def _rank(columns):
    """Rank by Fraction elimination, independent of the Smith normal form."""
    rows = [[Fraction(x) for x in col] for col in columns]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            f = rows[r][c] / rows[rank][c]
            rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_integer_solver_agrees_with_gauss_jordan(data):
    dim = data.draw(st.integers(1, 3))
    vec = st.tuples(*[st.integers(-6, 6)] * dim)
    columns = tuple(data.draw(st.lists(vec, max_size=3)))  # no columns: only 0 is in the span
    if _rank(columns) < len(columns):
        with pytest.raises(ValidationError):
            integer_solver(columns, dim)
        return
    solver = integer_solver(columns, dim)
    target = data.draw(vec)
    assert solver_coordinates(solver, target) == gauss_jordan_solve(columns, target)
    # members of the span have the drawn combination as their coordinates
    coeffs = data.draw(st.tuples(*[st.integers(-6, 6)] * len(columns)))
    member = tuple(sum(c * col[i] for c, col in zip(coeffs, columns)) for i in range(dim))
    assert solver_coordinates(solver, member) == coeffs


def coweights(length):
    """Integer vectors as tuples or lists: a compiled order unpacks either."""
    return st.tuples(*[st.integers(-20, 20)] * length).flatmap(lambda v: st.sampled_from((v, list(v))))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_monoid_order_agrees_with_free_monoid_leq(data):
    # random columns give den > 1 and, with fewer columns than dim, consistency rows
    dim = data.draw(st.integers(1, 3))
    columns = tuple(data.draw(st.lists(st.tuples(*[st.integers(-6, 6)] * dim), max_size=3)))
    if _rank(columns) < len(columns):
        return
    solver = integer_solver(columns, dim)
    leq = monoid_order(solver, dim)
    lower, upper = data.draw(coweights(dim)), data.draw(coweights(dim))
    assert leq(lower, upper) == free_monoid_leq(solver, lower, upper)
    # above lower by a drawn combination: in the order iff no coefficient is negative
    coeffs = data.draw(st.tuples(*[st.integers(-3, 3)] * len(columns)))
    step = tuple(sum(c * col[i] for c, col in zip(coeffs, columns)) for i in range(dim))
    assert leq(lower, vec_add(lower, step)) == all(c >= 0 for c in coeffs)
    assert free_monoid_leq(solver, lower, vec_add(lower, step)) == all(c >= 0 for c in coeffs)
    wrong = data.draw(st.integers(0, dim + 1).filter(lambda n: n != dim))
    misfit = data.draw(coweights(wrong))
    for pair in ((misfit, upper), (lower, misfit)):
        with pytest.raises(ValidationError) as raised:
            leq(*pair)
        assert str(raised.value) == f"{pair[0]} and {pair[1]} must both have length rank={dim}"
