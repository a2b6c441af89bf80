"""Involution validation, fixed sublattices, Levi data, and the catalog."""

from itertools import product

import pytest

from matsuki import realform
from matsuki.cli import main
from matsuki.errors import ValidationError
from matsuki.realform import (
    InvolutionSpec,
    catalog,
    catalog_names,
    dominant_involution,
    levi_longest_element,
    levi_simple_roots,
    real_coweight_basis,
    real_coweight_coordinates,
    real_criterion,
    step_basis,
    validate_involution,
)
from matsuki.rootdata import (
    gl_datum,
    height,
    identity_matrix,
    is_dominant,
    mat_vec,
    sl2_datum,
    sl2xsl2_datum,
    sl3_datum,
    smith_normal_form,
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
    # its transpose sends the moving positive root e1 - e2 to e3 - e2
    spec = InvolutionSpec(gl_datum(3), ((0, 0, 1), (0, 1, 0), (1, 0, 0)))
    assert validate_involution(spec) == [
        "transpose of theta does not permute the positive roots restricting non-trivially to the fixed "
        "sublattice (image of (1, -1, 0) leaves the set)"
    ]


def test_step_basis_refuses_a_generator_of_non_positive_height():
    # theta = -swap on sl3 is refused by validation; unvalidated, its sum
    # (1, 0) + (0, -1) of a coroot and its image has height 0
    spec = InvolutionSpec(sl3_datum(), ((0, -1), (-1, 0)))
    assert validate_involution(spec) != []
    with pytest.raises(ValidationError, match="^restricted coroot generator with non-positive height$"):
        step_basis(spec)


def test_catalog_entries_all_validate():
    for name in ALL_NAMES:
        assert validate_involution(catalog(name).spec) == []


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
    assert real_coweight_basis(catalog("sl2_split").spec) == ((1,),)
    assert real_coweight_basis(catalog("sl2_compact").spec) == ()
    assert real_coweight_basis(catalog("sl2C_as_real").spec) == ((1, 1),)
    assert real_coweight_basis(catalog("su21").spec) == ((1, 1),)


def test_real_coweight_basis_is_saturated():
    for name in ALL_NAMES:
        basis = real_coweight_basis(catalog(name).spec)
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
    from matsuki.rootdata import mat_mul, mat_transpose

    for name in ALL_NAMES:
        spec = catalog(name).spec
        levi = {spec.datum.roots[i] for i in levi_simple_roots(spec)}
        tt = mat_transpose(spec.theta)
        assert {tuple(mat_vec(tt, a)) for a in levi} == {tuple(-x for x in a) for a in levi}
        twist = mat_transpose(mat_mul(spec.theta, levi_longest_element(spec)))
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
    spec = catalog("sl3_split").spec
    for query in (dominant_involution, real_criterion):
        with pytest.raises(ValidationError, match="does not have length rank=2"):
            query(spec, (1, 1, 1))


def test_a_coweight_of_the_wrong_length_is_not_real():
    assert not catalog("sl3_split").spec.is_real((1, 1, 1))


def test_real_coordinates_of_a_moving_coweight_are_refused():
    spec = catalog("su21").spec
    assert real_coweight_coordinates(spec, (2, 2)) == (2,)
    with pytest.raises(ValidationError, match=r"^\(1, 0\) is not in the theta-fixed sublattice$"):
        real_coweight_coordinates(spec, (1, 0))


def test_is_real_is_theta_fixed():
    for name in ALL_NAMES:
        spec = catalog(name).spec
        for v in product(range(-3, 4), repeat=spec.datum.rank):
            assert spec.is_real(v) == (spec.apply(v) == v), (name, v)


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
