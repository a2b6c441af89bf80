"""Involution validation, fixed sublattices, Levi data, and the catalog."""

import gc
import inspect
import re
import textwrap
import weakref
from itertools import product

import pytest

from matsuki import realform
from matsuki.cli import main
from matsuki.errors import ValidationError
from matsuki.realform import (
    InvolutionSpec,
    catalog,
    catalog_names,
    levi_simple_roots,
    validate_involution,
)
from matsuki.rootdata import (
    dot,
    gl_datum,
    height,
    identity_matrix,
    is_dominant,
    mat_mul,
    mat_vec,
    sl2_datum,
    sl2xsl2_datum,
    sl3_datum,
    smith_normal_form,
    validate_root_datum,
)

from oracles import (
    CARTAN,
    REAL_FORM_COUNTS,
    cartan_datum,
    dominant_involution,
    gl_permutation_involutions,
    levi_involutions,
    levi_longest_element,
    real_criterion,
    reflection_matrix,
    valid_specs,
)

ALL_NAMES = list(catalog_names())


def dominant_coweights_up_to(datum, bound):
    out = []
    for vec in product(range(-bound, bound + 1), repeat=datum.rank):
        if is_dominant(datum, vec) and 0 <= height(datum, vec) <= bound:
            out.append(vec)
    return out


# ---------------------------------------------------------------------------
# validation


def test_split_and_compact_sl2_valid():
    datum = sl2_datum()
    assert validate_involution(InvolutionSpec(datum, identity_matrix(1))) == []
    assert validate_involution(InvolutionSpec(datum, ((-1,),))) == []


def test_swap_on_product_valid():
    spec = InvolutionSpec(sl2xsl2_datum(), ((0, 1), (1, 0)))
    assert validate_involution(spec) == []


def test_non_involutive_matrix_rejected():
    spec = InvolutionSpec(sl2_datum(), ((2,),))
    problems = validate_involution(spec)
    assert any("squared" in p for p in problems)
    assert any("permute" in p for p in problems)


def test_theta_of_the_wrong_shape_is_refused_before_any_product():
    for theta in (identity_matrix(3), ((1, 0), (0,))):
        assert validate_involution(InvolutionSpec(sl3_datum(), theta)) == ["theta must be a 2x2 integer matrix"]


def test_a_theta_that_breaks_positivity_is_refused():
    # gl3 with e1 and e3 swapped: theta squares to 1 and permutes the roots, but
    # its transpose sends the moving positive root e1 - e2 to e3 - e2; M is
    # empty, so w_M theta = theta, which sends the simple coroot e1 - e2 to e3 - e2
    spec = InvolutionSpec(gl_datum(3), ((0, 0, 1), (0, 1, 0), (1, 0, 0)))
    assert validate_involution(spec) == [
        "Araki's first condition fails: w_M theta sends the simple coroot (1, -1, 0) to (0, -1, 1), which is not simple"
    ]


# the real forms of gl2-gl5 among the involutions sign * P of gl_permutation_involutions,
# by n, the permutation and the sign: GL_n(R), U(n), U(p, q) and GL_m(H)
GL_REAL_FORMS = {
    (2, (0, 1), 1): "GL2(R)", (2, (0, 1), -1): "U(2)", (2, (1, 0), -1): "U(1,1)", (2, (1, 0), 1): "GL1(H)",
    (3, (0, 1, 2), 1): "GL3(R)", (3, (0, 1, 2), -1): "U(3)", (3, (2, 1, 0), -1): "U(2,1)",
    (4, (0, 1, 2, 3), 1): "GL4(R)", (4, (0, 1, 2, 3), -1): "U(4)", (4, (3, 1, 2, 0), -1): "U(3,1)",
    (4, (3, 2, 1, 0), -1): "U(2,2)", (4, (1, 0, 3, 2), 1): "GL2(H)",
    (5, (0, 1, 2, 3, 4), 1): "GL5(R)", (5, (0, 1, 2, 3, 4), -1): "U(5)", (5, (4, 1, 2, 3, 0), -1): "U(4,1)",
    (5, (4, 3, 2, 1, 0), -1): "U(3,2)",
}


def gl_verdicts():
    """The first problem of each permutation involution of gl2-gl5 up to its
    first colon, or "admitted", keyed as ``GL_REAL_FORMS``."""
    verdicts = {}
    for n in range(2, 6):
        for spec in gl_permutation_involutions(n):
            sign = sum(spec.theta[0])
            perm = tuple(row.index(sign) for row in spec.theta)
            problems = realform.validate_involution(spec)
            verdicts[n, perm, sign] = problems[0].split(":")[0] if problems else "admitted"
    return verdicts


def test_exactly_the_real_forms_of_gl2_to_gl5_are_admitted():
    verdicts = gl_verdicts()
    assert {key for key, verdict in verdicts.items() if verdict == "admitted"} == set(GL_REAL_FORMS)
    refused = sorted(verdict for verdict in verdicts.values() if verdict != "admitted")
    assert refused == ["Araki's first condition fails"] * 56 + ["Araki's second condition fails"] * 12


def test_the_gl4_swaps_of_e2_e3_and_e3_e4_are_refused_by_the_second_condition():
    # the involution whose step monoid is not free and whose classes lack a
    # least member, and the one that broke the difference rule of the covers
    for perm, i, coroot in [((0, 2, 1, 3), 0, (1, -1, 0, 0)), ((0, 1, 3, 2), 4, (0, 1, -1, 0))]:
        spec = InvolutionSpec(gl_datum(4), tuple(identity_matrix(4)[j] for j in perm), name="swap")
        assert validate_involution(spec) == [
            f"Araki's second condition fails: w_M theta fixes the simple coroot {coroot} outside M,"
            f" and <alpha_{i}, 2 rho_M^vee> = -1 is odd"
        ]


@pytest.mark.parametrize("name", CARTAN)
def test_each_type_admits_as_many_levi_involutions_as_it_has_real_forms(name):
    admitted = [spec.name for spec in levi_involutions(name) if not validate_involution(spec)]
    assert len(admitted) == REAL_FORM_COUNTS[name], admitted


@pytest.mark.parametrize(
    "condition, old, new",
    [("first", "if image not in simple:", "if False:"), ("second", "and dot(datum.roots[i], two_rho_levi) % 2:", "and False:")],
)
def test_a_dropped_araki_condition_is_caught(condition, old, new, monkeypatch):
    # validate_involution rebuilt from its source with one condition never failing
    source = textwrap.dedent(inspect.getsource(realform.validate_involution))
    assert source.count(old) == 1
    namespace = dict(vars(realform))
    exec(compile(source.replace(old, new), realform.__file__, "exec"), namespace)
    monkeypatch.setattr(realform, "validate_involution", namespace["validate_involution"])
    admitted = {key for key, verdict in gl_verdicts().items() if verdict == "admitted"}
    assert len(admitted - set(GL_REAL_FORMS)) == {"first": 54, "second": 12}[condition]


def positivity_problem(spec):
    """The positivity test validation made before Araki's first condition: the
    transpose of theta must keep the positive roots that do not vanish on the
    fixed lattice positive."""
    datum = spec.datum
    moving = {datum.roots[i] for i in datum.positive_root_indices
              if any(dot(datum.roots[i], b) for b in spec.fixed_basis)}
    return any(mat_vec(tuple(zip(*spec.theta)), alpha) not in moving for alpha in moving)


def signed_weyl_involutions(datum):
    """The involutions +-w, w in the Weyl group: all of them permute the coroots."""
    group, todo = {identity_matrix(datum.rank)}, [identity_matrix(datum.rank)]
    while todo:
        w = todo.pop()
        for i in datum.simple_indices:
            if (x := mat_mul(reflection_matrix(datum, i), w)) not in group:
                group.add(x)
                todo.append(x)
    for w in group:
        for theta in (w, tuple(tuple(-x for x in row) for row in w)):
            if mat_mul(theta, theta) == identity_matrix(datum.rank):
                yield InvolutionSpec(datum, theta)


def test_the_first_condition_is_the_old_positivity_test():
    specs = [spec for n in range(2, 6) for spec in gl_permutation_involutions(n)]
    specs += [spec for name in ("B2", "G2", "B3", "C3") for spec in signed_weyl_involutions(cartan_datum(name))]
    specs += list(signed_weyl_involutions(sl3_datum()))
    first = 0
    for spec in specs:
        problems = validate_involution(spec)
        refused = bool(problems) and problems[0].startswith("Araki's first condition")
        assert refused == positivity_problem(spec), spec.theta
        first += refused
    assert (len(specs), first) == (200, 123)


def test_catalog_entries_all_validate():
    for name in ALL_NAMES:
        entry = catalog(name)
        assert validate_root_datum(entry.datum) == [], name
        assert validate_involution(entry.spec) == [], name


def test_unknown_catalog_name():
    with pytest.raises(ValidationError, match="unknown catalog entry"):
        catalog("no_such_form")


def test_catalog_validates_an_entry_once_on_first_lookup(monkeypatch, cleared_caches):
    checked = []

    def counting(spec):
        checked.append(spec.name)
        return validate_involution(spec)

    monkeypatch.setattr(realform, "validate_involution", counting)
    entry = catalog("sl2_split")
    assert catalog("sl2_split") is entry and entry.name == "sl2_split"
    assert checked == ["sl2_split"]


def test_failing_catalog_validation_still_raises(monkeypatch, cleared_caches, capsys):
    monkeypatch.setattr(realform, "validate_involution", lambda spec: ["injected failure"])
    with pytest.raises(ValidationError, match="injected failure"):
        catalog("sl2_split")
    assert main(["pi1", "sl2_split"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: invalid involution 'sl2_split': injected failure")
    assert "Traceback" not in captured.err and captured.out == ""


# ---------------------------------------------------------------------------
# fixed sublattice and Levi


def test_real_coweight_basis_examples():
    assert catalog("sl2_split").spec.fixed_basis == ((1,),)
    assert catalog("sl2_compact").spec.fixed_basis == ()
    assert catalog("sl2C_as_real").spec.fixed_basis == ((1, 1),)
    assert catalog("su21").spec.fixed_basis == ((1, 1),)


def test_real_coweight_basis_is_saturated():
    for name in ALL_NAMES:
        basis = catalog(name).spec.fixed_basis
        if not basis:
            continue
        columns = tuple(tuple(b[i] for b in basis) for i in range(len(basis[0])))
        _, d, _ = smith_normal_form(columns)
        diag = [d[i][i] for i in range(min(len(columns), len(basis)))]
        assert all(x == 1 for x in diag)


def test_levi_simple_roots_examples():
    assert levi_simple_roots(catalog("sl2_split").spec) == ()
    assert levi_simple_roots(catalog("sl2_compact").spec) == (0,)
    assert levi_simple_roots(catalog("sl2C_as_real").spec) == ()
    assert levi_simple_roots(catalog("su21").spec) == ()


def test_levi_longest_element_examples():
    assert levi_longest_element(catalog("sl2_split").spec) == identity_matrix(1)
    assert levi_longest_element(catalog("sl2_compact").spec) == ((-1,),)
    assert levi_longest_element(catalog("su21").spec) == identity_matrix(2)


def test_theta_transpose_negates_levi_simples():
    # on the anisotropic Levi the transpose of theta sends each simple root to
    # the negative of a simple root; composing with the Levi longest element
    # (the quasi-split twist) permutes the simple system
    for name in ALL_NAMES:
        spec = catalog(name).spec
        levi = {spec.datum.roots[i] for i in levi_simple_roots(spec)}
        tt = tuple(zip(*spec.theta))
        assert {tuple(mat_vec(tt, a)) for a in levi} == {tuple(-x for x in a) for a in levi}
        twist = tuple(zip(*mat_mul(spec.theta, levi_longest_element(spec))))
        simples = {spec.datum.roots[i] for i in spec.datum.simple_indices}
        assert {tuple(mat_vec(twist, a)) for a in simples} == simples


# ---------------------------------------------------------------------------
# dominant involution and the real criterion


def test_dominant_involution_examples():
    split = catalog("sl2_split").spec
    assert dominant_involution(split, (3,)) == (3,)
    compact = catalog("sl2_compact").spec
    assert dominant_involution(compact, (4,)) == (4,)  # -4 reflected back
    swap = catalog("sl2C_as_real").spec
    assert dominant_involution(swap, (3, 1)) == (1, 3)


def test_dominant_involution_rejects_non_dominant():
    # real_criterion refuses through dominant_involution, with its message
    for query in (dominant_involution, real_criterion):
        with pytest.raises(ValidationError, match=r"^\(-1,\) is not dominant$"):
            query(catalog("sl2_split").spec, (-1,))


def test_dominance_queries_reject_wrong_length():
    # theta itself too: its products would otherwise zip a coweight of another length to the shorter one
    for name in ("sl3_split", "su21"):
        for query in (dominant_involution, real_criterion, InvolutionSpec.apply):
            for coweight in ((1,), (1, 2, 3)):
                with pytest.raises(ValidationError, match=rf"^{re.escape(str(coweight))} does not have length rank=2$"):
                    query(catalog(name).spec, coweight)


def test_a_coweight_of_the_wrong_length_is_not_real():
    assert not catalog("sl3_split").spec.is_real((1, 1, 1))


def test_is_real_is_theta_fixed():
    # the catalog and every other valid spec: theta moves a coweight iff some
    # moving row pairs nonzero with it, and theta - 1 has rank - k such rows
    for spec in valid_specs():
        rank = spec.datum.rank
        assert len(spec.moving_rows) == rank - len(spec.fixed_basis), spec.name
        radius = 3 if rank <= 3 else 2
        for v in product(range(-radius, radius + 1), repeat=rank):
            assert spec.is_real(v) == (spec.apply(v) == v), (spec.name, v)


@pytest.mark.parametrize("name", catalog_names())
def test_a_spec_is_freed_by_reference_counting(name):
    # no cached property, closures included, refers back to its spec, so the
    # spec goes with its last reference, without the cyclic collector
    entry = catalog(name)
    spec = InvolutionSpec(entry.datum, entry.spec.theta, name)
    for attribute in ("moving_rows", "fixed_basis", "restricted_coroot_generators", "step_solver", "step_order",
                      "real_step_order", "image_lattice"):
        getattr(spec, attribute)
    ref, enabled = weakref.ref(spec), gc.isenabled()
    gc.disable()
    try:
        del spec
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def test_real_criterion_examples():
    assert real_criterion(catalog("sl2_split").spec, (5,))
    assert not real_criterion(catalog("sl2_compact").spec, (1,))
    assert real_criterion(catalog("pgl2_so21").spec, (2,))


def test_dominant_involution_is_involution_on_dominant_cone():
    for name in ALL_NAMES:
        entry = catalog(name)
        for lam in dominant_coweights_up_to(entry.datum, 12):
            image = dominant_involution(entry.spec, lam)
            assert dominant_involution(entry.spec, image) == lam


def test_real_criterion_equals_theta_fixed_on_dominant_cone():
    for name in ALL_NAMES:
        entry = catalog(name)
        for lam in dominant_coweights_up_to(entry.datum, 8):
            assert real_criterion(entry.spec, lam) == entry.spec.is_real(lam), (name, lam)
