"""Fundamental-group models and the parameterizing sub-semigroup."""

import copy
from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matsuki import fundgroup, realform, rootdata
from matsuki.cli import main
from matsuki.errors import TheoremViolationError, ValidationError
from matsuki.fundgroup import (
    image_index,
    in_image_semigroup,
    pi1_model,
    pi1_of_symmetric_space,
)
from matsuki.laws import real_dominant_up_to
from matsuki.orbitposet import (
    build_poset_slice,
    core_data,
    enumerate_orbits,
    k_leq,
    primitive_relations,
    r_leq,
    real_step_leq,
)
from matsuki.realform import (
    InvolutionSpec,
    catalog,
    catalog_names,
    restricted_coroot_generators,
    step_basis,
    validate_involution,
)
from matsuki.rootdata import (
    FiniteAbelianGroup,
    RootDatum,
    column_matrix,
    dot,
    gl_datum,
    height,
    identity_matrix,
    integer_solver,
    kernel_basis,
    positive_coroots,
    quotient_group,
    simple_coroots,
    simple_roots,
    validate_root_datum,
    vec_add,
    vec_scale,
    vec_sub,
)

from oracles import (
    cartan_datum,
    decomposes,
    group_class,
    real_coweight_coordinates,
    real_form_specs,
    step_search,
    valid_specs,
)

ALL_NAMES = list(catalog_names())


def lattice_specs():
    """Fresh specs of every catalog entry and of gl4 with theta swapping e2
    and e3 or e3 and e4: fixed lattices of rank 3 whose sums e_i + theta(e_i)
    are both 2 e_i and e_i + e_j."""
    swaps = {"gl4_swap23": (0, 2, 1, 3), "gl4_swap34": (0, 1, 3, 2)}
    gl4 = [InvolutionSpec(gl_datum(4), tuple(identity_matrix(4)[j] for j in perm), name=name)
           for name, perm in swaps.items()]
    return [copy.deepcopy(catalog(name).spec) for name in ALL_NAMES] + gl4


# ---------------------------------------------------------------------------
# restricted coroot generators


def test_generator_examples():
    assert restricted_coroot_generators(catalog("sl2_split").spec) == ((1,), (2,))
    assert restricted_coroot_generators(catalog("pgl2_so21").spec) == ((2,), (4,))
    assert restricted_coroot_generators(catalog("sl2C_as_real").spec) == ((1, 1),)
    assert restricted_coroot_generators(catalog("sl2_compact").spec) == ()


def test_generators_are_theta_fixed_and_nonzero():
    for name in ALL_NAMES:
        spec = catalog(name).spec
        for g in restricted_coroot_generators(spec):
            assert spec.is_real(g)
            assert any(x != 0 for x in g)
            assert height(spec.datum, g) > 0


@pytest.mark.parametrize("name", ALL_NAMES)
def test_the_generators_are_built_once_applying_theta_once_per_positive_coroot(name, monkeypatch):
    # ``matsuki pi1`` prints the generators and quotients the fixed lattice by them: one build serves both
    spec, applied, apply = copy.deepcopy(catalog(name).spec), [], InvolutionSpec.apply
    monkeypatch.setattr(InvolutionSpec, "apply", lambda self, v: applied.append(v) or apply(self, v))
    gens = restricted_coroot_generators(spec)
    pi1_of_symmetric_space(spec)
    assert restricted_coroot_generators(spec) is gens
    assert applied == list(positive_coroots(spec.datum))


@pytest.mark.parametrize("name", ["sl2_compact", "sl2C_as_real", "su21"])
def test_the_image_lattice_applies_theta_once_per_unit_vector(name, monkeypatch):
    # theta is applied only for the sums lambda + theta(lambda); the fixed
    # coroots are picked by ``is_real``.  A new spec, so no property is cached
    entry = catalog(name).spec
    spec, applied, apply = InvolutionSpec(entry.datum, entry.theta, name), [], InvolutionSpec.apply
    monkeypatch.setattr(InvolutionSpec, "apply", lambda self, v: applied.append(v) or apply(self, v))
    _ = spec.image_lattice
    assert applied == list(identity_matrix(spec.datum.rank))


# ---------------------------------------------------------------------------
# the step monoid: indecomposable generators and one solve


def test_step_basis_examples():
    assert set(step_basis(catalog("sl3_split").spec)) == {(0, 1), (1, 0)}
    assert set(step_basis(catalog("gl3_split").spec)) == {(0, 1, -1), (1, -1, 0)}
    assert step_basis(catalog("su21").spec) == ((1, 1),)
    assert step_basis(catalog("pgl2_so21").spec) == ((2,),)
    assert step_basis(catalog("sl2_compact").spec) == ()


def test_step_basis_generates_the_same_monoid():
    for name in ALL_NAMES:
        spec = catalog(name).spec
        basis = step_basis(spec)
        for g in restricted_coroot_generators(spec):
            assert decomposes(spec.datum, basis, g), (name, g)
        for i, b in enumerate(basis):
            assert not decomposes(spec.datum, basis[:i] + basis[i + 1:], b), (name, b)


def combination(spec, generators, coeffs):
    vec = (0,) * spec.datum.rank
    for c, g in zip(coeffs, generators):
        vec = vec_add(vec, vec_scale(c, g))
    return vec


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_step_order_agrees_with_bounded_search(data):
    # real pairs on every entry, dominant or not; half of them differ by a
    # known combination of the generators
    for name in ALL_NAMES:
        spec = catalog(name).spec
        basis, gens = spec.fixed_basis, restricted_coroot_generators(spec)
        lower = combination(spec, basis, data.draw(st.tuples(*[st.integers(-4, 4)] * len(basis))))
        if data.draw(st.booleans()):
            upper = combination(spec, basis, data.draw(st.tuples(*[st.integers(-4, 4)] * len(basis))))
        else:
            steps = data.draw(st.tuples(*[st.integers(0, 3)] * len(gens)))
            upper = vec_add(lower, combination(spec, gens, steps))
        expected = decomposes(spec.datum, gens, vec_sub(upper, lower))
        assert real_step_leq(spec, lower, upper) == expected, (name, lower, upper)
        assert r_leq(spec, upper, lower) == expected, (name, lower, upper)


def test_step_solver_is_the_solver_of_the_step_basis():
    for spec in lattice_specs():
        assert spec.step_solver == integer_solver(step_basis(spec), dim=spec.datum.rank), spec.name
        if spec.name == "gl4_swap23":
            # not a real form (validation refuses it), yet its read-off basis is independent
            assert step_basis(spec) == ((2, -1, -1, 0), (0, 1, 1, -2))


def read_off_mismatches(specs):
    """Names of the specs, taken fresh, whose step basis differs from the
    height-ordered search as a set or in length, whose step solver differs
    from the search's ``integer_solver`` or refuses the basis as dependent (a
    solve row is compared at its basis vector, since the read-off lists the
    basis in simple-index order), or whose fixed basis differs from the kernel
    of theta - 1."""
    mismatched = []
    for spec in map(copy.deepcopy, specs):
        n, searched = spec.datum.rank, step_search(spec)
        basis = step_basis(spec)
        try:
            den, rows, consistency = spec.step_solver
        except TheoremViolationError:  # a dependent basis
            mismatched.append(spec.name)
            continue
        search_den, search_rows, search_consistency = integer_solver(searched, dim=n)
        fixed = kernel_basis(tuple(tuple(spec.theta[i][j] - (i == j) for j in range(n)) for i in range(n)))
        if ((len(basis), set(basis)) != (len(searched), set(searched))
                or (den, dict(zip(basis, rows)), consistency)
                != (search_den, dict(zip(searched, search_rows)), search_consistency)
                or spec.fixed_basis != fixed):
            mismatched.append(spec.name)
    return mismatched


def test_every_real_form_reads_off_what_the_search_finds():
    specs = valid_specs()
    split = [s.name for s in specs if s.theta == identity_matrix(s.datum.rank)]
    # the 7 split catalog entries, gl2-gl5, the split forms of B2, C2, G2, B3
    # and C3, and those of A2, A3, B2, C2, G2, B3, C3 and D4 once more
    assert (len(specs), len(split)) == (75, 24)
    assert read_off_mismatches(specs) == []


def test_the_zero_sums_are_the_levi_simple_roots():
    for spec in valid_specs():
        datum = spec.datum
        zeros = tuple(i for i in datum.simple_indices
                      if not any(vec_add(datum.coroots[i], spec.apply(datum.coroots[i]))))
        assert zeros == realform.levi_simple_roots(spec), spec.name


def test_a_read_off_admitting_non_split_forms_is_caught(monkeypatch):
    # theta = 1 is "no moving rows": a decoding that reports none for two
    # non-split forms reads their fixed basis off as the unit basis
    rows = InvolutionSpec.moving_rows.func
    monkeypatch.setattr(InvolutionSpec, "moving_rows",
                        property(lambda s: () if s.name in ("sl2C_as_real", "su21") else rows(s)))
    assert read_off_mismatches(real_form_specs()) == ["sl2C_as_real", "su21"]


# mutants of the read-off, for the comparisons to catch


def _images(spec):
    return [(beta, spec.apply(beta)) for beta in simple_coroots(spec.datum)]


def _always_the_sum(spec):
    """``step_basis`` with beta + theta(beta) also where theta fixes beta."""
    return tuple(dict.fromkeys(v for v in (vec_add(b, t) for b, t in _images(spec)) if any(v)))


def _zeros_kept(spec):
    """``step_basis`` without dropping the zero sums."""
    return tuple(dict.fromkeys(b if b == t else vec_add(b, t) for b, t in _images(spec)))


def _repeats_kept(spec):
    """``step_basis`` listing the sum of each coroot of an orbit."""
    return tuple(v for v in (b if b == t else vec_add(b, t) for b, t in _images(spec)) if any(v))


@pytest.mark.parametrize("mutant, caught", [
    (_always_the_sum, {"sl2_split", "pgl2_so21", "sl3_split", "su11", "gl2_split", "gl3_split"}),
    (_zeros_kept, {"sl2_compact"}),
    (_repeats_kept, {"sl2C_as_real", "su21"}),
])
def test_the_comparison_catches_step_basis_mutants(mutant, caught, monkeypatch):
    monkeypatch.setattr(realform, "step_basis", mutant)
    assert caught <= set(read_off_mismatches([catalog(name).spec for name in ALL_NAMES]))


# Smith normal forms that one cold call each of k_leq, r_leq, real_step_leq
# and is_real run on a spec with no cached property: the simple coroots;
# unless theta = 1, whose step basis is the simple coroots, with their solver,
# also the solver of the step basis.  The theta-fixed tests read the rows of
# theta - 1 and solve nothing
COLD_ORDER_SMITH_FORMS = {
    "sl2_split": 1, "sl2_compact": 2, "pgl2_so21": 1, "sl2C_as_real": 2, "sl3_split": 1,
    "su11": 1, "su21": 2, "gl1_split": 1, "gl2_split": 1, "gl3_split": 1,
}


def cold_order_counts(spec, monkeypatch):
    """Smith normal forms and compiled orders of one cold call each of k_leq,
    r_leq, real_step_leq and is_real on the spec."""
    solved, snf = [], rootdata.smith_normal_form
    monkeypatch.setattr(rootdata, "smith_normal_form", lambda m: solved.append(m) or snf(m))
    compiled, compile_order = [], rootdata.monoid_order
    for module in (rootdata, realform):
        monkeypatch.setattr(module, "monoid_order", lambda *a: compiled.append(a) or compile_order(*a))
    zero = (0,) * spec.datum.rank
    assert all(relation(spec, zero, zero) for relation in (k_leq, r_leq, real_step_leq))
    assert spec.is_real(zero)
    return len(solved), len(compiled)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_cold_orders_solve_the_step_basis_once(name, monkeypatch):
    spec = copy.deepcopy(catalog(name).spec)
    smith_forms, compiled = cold_order_counts(spec, monkeypatch)
    split = spec.theta == identity_matrix(spec.datum.rank)
    assert smith_forms == COLD_ORDER_SMITH_FORMS[name] == (1 if split else 2)
    # one order serves k_leq, r_leq and real_step_leq of a split form
    assert compiled == (1 if split else 2)


def test_the_compile_count_catches_a_step_solver_not_shared(monkeypatch):
    # a mutant step solver that solves the step basis afresh, never the
    # datum's coroot solver: a split form then compiles a second order
    own = property(lambda s: integer_solver(step_basis(s), dim=s.datum.rank))
    monkeypatch.setattr(realform.InvolutionSpec, "step_solver", own)
    for name in ALL_NAMES:
        spec = copy.deepcopy(catalog(name).spec)
        if spec.theta == identity_matrix(spec.datum.rank):
            assert cold_order_counts(spec, monkeypatch) == (2, 2), name


@pytest.mark.parametrize("name", ["gl3_split", "pgl2_so21"])
def test_a_cold_split_slice_and_core_eliminate_the_simple_roots_and_coroots_only(name, monkeypatch, cleared_caches):
    # the image quotient is read off the simple coroots' Smith form, which the
    # coroot solver shares; the simple roots give the height (positive roots)
    spec = copy.deepcopy(catalog(name).spec)
    solved, snf = [], rootdata.smith_normal_form
    monkeypatch.setattr(rootdata, "smith_normal_form", lambda m: solved.append(m) or snf(m))
    quotients = []
    monkeypatch.setattr(realform, "quotient_group", lambda *a: quotients.append(a) or quotient_group(*a))
    elements = enumerate_orbits(spec, 6)
    assert primitive_relations(spec, elements)
    assert core_data(spec, elements[-1])
    datum = spec.datum
    assert quotients == []
    expected = [column_matrix(simple_coroots(datum), datum.rank), column_matrix(simple_roots(datum), datum.rank)]
    assert Counter(solved) == Counter(expected)


def test_non_free_generators_raise(monkeypatch, cleared_caches):
    spec = copy.deepcopy(catalog("sl2_compact").spec)
    monkeypatch.setattr(realform, "step_basis", lambda spec: ((2,), (3,)))
    with pytest.raises(TheoremViolationError, match=r"^the step basis \(\(2,\), \(3,\)\) of 'sl2_compact' is dependent;"
                                                    " the step monoid is not free$"):
        spec.step_solver
    with pytest.raises(TheoremViolationError, match="not free"):
        real_step_leq(spec, (0,), (2,))


def test_non_free_generators_fail_the_check(monkeypatch, cleared_caches, capsys):
    monkeypatch.setattr(realform, "step_basis", lambda spec: ((2,), (3,)))
    assert main(["check", "sl2_compact"]) == 2
    captured = capsys.readouterr()
    for suite in ("generation", "duality", "step-order"):
        assert (f"suite sl2_compact/{suite}: FAIL (the step basis ((2,), (3,)) of 'sl2_compact' is dependent;"
                " the step monoid is not free)") in captured.out
    assert "check: " in captured.out and "suite(s) failed" in captured.out
    assert "Traceback" not in captured.out + captured.err


# ---------------------------------------------------------------------------
# fundamental group of the symmetric space


def test_pi1_symmetric_space_examples():
    assert pi1_of_symmetric_space(catalog("sl2_split").spec).invariant_factors == ()
    assert pi1_of_symmetric_space(catalog("pgl2_so21").spec).invariant_factors == (2,)
    assert pi1_of_symmetric_space(catalog("sl2_compact").spec).invariant_factors == ()
    assert pi1_of_symmetric_space(catalog("gl2_split").spec).invariant_factors == (0,)


def test_pi1_model_examples():
    so21 = pi1_model(catalog("pgl2_so21").spec)
    assert so21.group_pi1.invariant_factors == (2,)
    assert so21.space_pi1.invariant_factors == (2,)
    assert so21.image_index == 2
    # the image of the loop map is trivial in Z/2: the generator 2*omega maps to 0
    assert so21.image_generators == ((2,),)
    space = pi1_of_symmetric_space(catalog("pgl2_so21").spec)
    coords = real_coweight_coordinates(catalog("pgl2_so21").spec, (2,))
    assert all(c == 0 for c in group_class(space, coords))

    assert pi1_model(catalog("sl2_split").spec).image_index == 1
    assert pi1_model(catalog("sl2C_as_real").spec).image_index == 1


def test_image_index_matches_component_expectation():
    for name in ALL_NAMES:
        entry = catalog(name)
        index = pi1_model(entry.spec).image_index
        assert (index == 1) == entry.expected_k_connected, name


IMAGE_INDEX = {
    "sl2_split": 1, "sl2_compact": 1, "pgl2_so21": 2, "sl2C_as_real": 1, "sl3_split": 1,
    "su11": 1, "su21": 1, "gl1_split": 2, "gl2_split": 2, "gl3_split": 2,
}


def test_image_index_of_every_entry():
    assert {name: image_index(catalog(name).spec) for name in ALL_NAMES} == IMAGE_INDEX
    assert {name: pi1_model(catalog(name).spec).image_index for name in ALL_NAMES} == IMAGE_INDEX


def test_slices_and_orbit_reports_build_no_pi1_group(monkeypatch, package_caches, cleared_caches, capsys):
    built = []
    for name in ("pi1_of_group", "pi1_of_symmetric_space"):
        real = getattr(fundgroup, name)
        monkeypatch.setattr(fundgroup, name, lambda arg, real=real, name=name: built.append(name) or real(arg))
    for name in ALL_NAMES:
        assert build_poset_slice(catalog(name).spec, 6).image_index == IMAGE_INDEX[name]
    for cache in package_caches:
        cache.cache_clear()
    for name in ALL_NAMES:
        assert main(["orbits", name, "--height", "6"]) == 0
        assert f"image_index: {IMAGE_INDEX[name]}\n" in capsys.readouterr().out
    assert built == []
    assert main(["pi1", "pgl2_so21"]) == 0  # the report that prints both groups builds them
    assert built == ["pi1_of_group", "pi1_of_symmetric_space"]


# where each path of InvolutionSpec.image_lattice builds its quotient, the
# width of that quotient's rows, two entries that take the path (the second
# for the commands, with a coweight for `dual` and `core`) and one that does not
IMAGE_QUOTIENT_PATHS = (
    ("_split_image_group", lambda datum: datum.rank, "gl2_split", "pgl2_so21", ["2"], "su21"),
    ("quotient_group", lambda rank, gens: rank, "sl2C_as_real", "su21", ["1", "1"], "gl2_split"),
)


def test_an_infinite_image_index_is_a_theorem_violation(monkeypatch, package_caches, cleared_caches, capsys):
    # 2*lambda = lambda + theta(lambda) bounds the index, so a free factor in
    # the image quotient is an internal fault, raised where the quotient is built
    infinite = "infinite index in the fixed sublattice"
    for name, width, first, entry, coweight, other in IMAGE_QUOTIENT_PATHS:
        build = getattr(realform, name)

        def with_free_factor(*args, build=build, width=width):
            group = build(*args)
            return FiniteAbelianGroup((*group.invariant_factors, 0), (*group.projection, (0,) * width(*args)))

        for cache in package_caches:
            cache.cache_clear()
        with monkeypatch.context() as patch:
            patch.setattr(realform, name, with_free_factor)
            with pytest.raises(TheoremViolationError, match=infinite):
                image_index(catalog(first).spec)
            assert image_index(catalog(other).spec) == IMAGE_INDEX[other]  # the other path is untouched
            for argv in (["orbits", entry, "--height", "4"], ["poset", entry, "--height", "4"],
                         ["dual", entry, *coweight], ["core", entry, *coweight], ["pi1", entry]):
                assert main(argv) == 2, argv
                captured = capsys.readouterr()
                assert captured.out == "" and "Traceback" not in captured.err, argv
                assert captured.err == f"theorem violation: loop image of {entry!r} has {infinite}\n"


def test_image_index_divides_torsion_order_when_finite():
    for name in ALL_NAMES:
        model = pi1_model(catalog(name).spec)
        order = model.space_pi1.order()
        if order is not None:
            assert order % model.image_index == 0, name


def test_image_generators_have_well_defined_classes():
    for name in ALL_NAMES:
        spec = catalog(name).spec
        space = pi1_of_symmetric_space(spec)
        for g in pi1_model(spec).image_generators:
            coords = real_coweight_coordinates(spec, g)
            group_class(space, coords)  # must not raise; class is well defined


def reference_image_quotient(spec):
    """The image quotient of the fixed lattice by every restricted coroot
    generator and the sums e_i + theta(e_i), in fixed-basis coordinates."""
    sums = (vec_add(e, spec.apply(e)) for e in identity_matrix(spec.datum.rank))
    gens = (*restricted_coroot_generators(spec), *(v for v in sums if any(v)))
    return quotient_group(len(spec.fixed_basis), tuple(real_coweight_coordinates(spec, g) for g in gens))


def extra_split_specs():
    """The split forms of PGL3, PGL4 and SL2 x PGL2: the data of A2 and A3 with
    roots and coroots swapped, whose simple coroots have the Smith diagonals
    (1, 3) and (1, 1, 4), so a split image quotient takes gcd(d_i, 2), not d_i;
    and SL2 x PGL2, whose class row (0, 1) changes when its coordinates are
    reversed, so the quotient's rows must be read in the coordinates of the
    coweights they class (the fixed basis of theta = 1 is the reversed unit
    basis)."""
    data = []
    for name in ("A2", "A3"):
        datum = cartan_datum(name)
        data.append(RootDatum(datum.rank, datum.coroots, datum.roots, datum.simple_indices, name=f"adjoint {name}"))
    data.append(RootDatum(2, ((2, 0), (0, 1), (-2, 0), (0, -1)), ((1, 0), (0, 2), (-1, 0), (0, -2)), (0, 1),
                          name="sl2xpgl2"))
    return [InvolutionSpec(datum, identity_matrix(datum.rank), name=f"{datum.name} split") for datum in data]


def test_the_extra_split_forms_are_the_cases_they_stand_for():
    specs = extra_split_specs()
    assert [validate_root_datum(spec.datum) + validate_involution(spec) for spec in specs] == [[], [], []]
    diagonals = []
    for spec in specs:
        _, d, _ = spec.datum.coroot_smith_form
        diagonals.append([d[i][i] for i in range(spec.datum.rank)])
    assert diagonals == [[1, 3], [1, 1, 4], [1, 2]]
    assert [image_index(spec) for spec in specs] == [1, 2, 2]
    assert in_image_semigroup(specs[2], (1, 2)) and not in_image_semigroup(specs[2], (2, 1))


def test_image_quotient_matches_the_one_of_every_restricted_generator():
    # the sums beta + theta(beta) among the restricted generators lie in the
    # span of the basis sums, so leaving them out changes no class; beyond the
    # catalog, the real forms of gl2-gl5, B2, C2, G2, B3 and C3 (their split
    # forms read the quotient off the simple coroots, gl_n's interleaved) and
    # the split forms of PGL3, PGL4 and SL2 x PGL2
    beyond = [copy.deepcopy(s) for s in real_form_specs() if s.name not in ALL_NAMES]
    for spec in lattice_specs() + beyond + extra_split_specs():
        reference = reference_image_quotient(spec)
        _, group, class_rows = spec.image_lattice
        assert group.invariant_factors == reference.invariant_factors, spec.name
        zero = (0,) * len(reference.invariant_factors)
        basis = spec.fixed_basis
        radius = 3 if len(basis) <= 3 else 2
        for coeffs in product(range(-radius, radius + 1), repeat=len(basis)):
            v = combination(spec, basis, coeffs)  # whose fixed-basis coordinates are coeffs
            in_image = group_class(reference, coeffs) == zero
            assert (group_class(group, v) == zero) == in_image, (spec.name, v)
            assert (not any(dot(row, v) % m for row, m in class_rows)) == in_image, (spec.name, v)


# ---------------------------------------------------------------------------
# membership in the image sub-semigroup


def test_in_image_examples():
    so21 = catalog("pgl2_so21").spec
    assert not in_image_semigroup(so21, (1,))
    assert in_image_semigroup(so21, (2,))
    for name in ALL_NAMES:
        spec = catalog(name).spec
        assert in_image_semigroup(spec, (0,) * spec.datum.rank)


def test_in_image_rejects_bad_input():
    so21 = catalog("pgl2_so21").spec
    with pytest.raises(ValidationError, match="not dominant"):
        in_image_semigroup(so21, (-2,))
    compact = catalog("sl2_compact").spec
    with pytest.raises(ValidationError, match="not theta-fixed"):
        in_image_semigroup(compact, (1,))


def test_semigroup_closed_under_addition():
    for name in ALL_NAMES:
        spec = catalog(name).spec
        members = [
            lam for lam in real_dominant_up_to(spec, 10) if in_image_semigroup(spec, lam)
        ]
        for a in members:
            for b in members:
                s = vec_add(a, b)
                assert in_image_semigroup(spec, s), (name, a, b)


def test_sub_semigroup_index_stabilizes():
    for name in ALL_NAMES:
        entry = catalog(name)
        if entry.datum.rank > 2:
            continue
        everything = real_dominant_up_to(entry.spec, 20)
        members = [lam for lam in everything if in_image_semigroup(entry.spec, lam)]
        ratio = len(everything) / len(members)
        assert abs(ratio - pi1_model(entry.spec).image_index) <= 0.2, name


def test_split_type_a_parity_cross_check():
    # loop evaluation at -1 lands in the identity component of the orthogonal
    # group iff the coordinate sum is even; this must agree with membership
    for name in ("gl1_split", "gl2_split", "gl3_split"):
        spec = catalog(name).spec
        for lam in real_dominant_up_to(spec, 8):
            det_at_minus_one = (-1) ** sum(lam)
            assert in_image_semigroup(spec, lam) == (det_at_minus_one == 1), (name, lam)
