"""Acceptance suite: one test per criterion, each printing a PASS line.

Every bound and tolerance is pinned here:
- golden chain and exact file match at height 20;
- connected-symmetric-subgroup law at height 20, zero exceptions;
- generation of the fixed positive cone at height 12, exhaustive;
- order reversal on height-20 slices and step-order equivalence at height 12;
- real-coweight criterion at height 12, exhaustive;
- 200 seeded loops per supported matrix form (seed base 7), zero failures;
- geodesic duality pairing at height 8 for the split gl forms;
- the three hand-verified invariant matrices, exact.
"""

import os
from itertools import product

import pytest

from matsuki.cli import main
from matsuki.errors import ValidationError
from matsuki.fundgroup import in_image_semigroup, pi1_model, restricted_coroot_generators
from matsuki.laws import (
    chain_structure,
    duality,
    matrix_invariance,
    positive_cone_reals,
    real_dominant_up_to,
    step_order,
)
from matsuki.loopmatrix import (
    LaurentPoly,
    diagonal_loop,
    form_action,
    form_names,
    geodesic_representative,
    identity_loop,
    k_orbit_invariant,
    lm_from_rows,
    loops_equal,
    mat_mul,
    r_orbit_invariant,
    splitting_type,
    stratum_invariant,
)
from matsuki.orbitposet import build_poset_slice, enumerate_orbits
from matsuki.realform import catalog, catalog_names, real_criterion
from matsuki.rootdata import height, is_dominant

from oracles import decomposes

ACCEPTANCE_SEED = 7
GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def report(criterion: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS")


def dominant_up_to(datum, bound):
    out = []
    for vec in product(range(-bound, bound + 1), repeat=datum.rank):
        if is_dominant(datum, vec) and 0 <= height(datum, vec) <= bound:
            out.append(vec)
    return out


# ---------------------------------------------------------------------------
# 1. golden chain


def test_criterion_1_golden_chain(capsys):
    spec = catalog("pgl2_so21").spec
    # total order, chain Hasse diagram, disconnected symmetric subgroup
    assert chain_structure(spec, build_poset_slice(spec, 20, "K")) is None
    assert pi1_model(spec).image_index == 2

    rc = main(["poset", "pgl2_so21", "--height", "20"])
    out = capsys.readouterr().out
    assert rc == 0
    with open(os.path.join(GOLDEN_DIR, "pgl2_so21_poset_h20.txt"), encoding="utf-8") as fh:
        assert out == fh.read()
    with capsys.disabled():
        report("1 (golden chain, exact file match)")


# ---------------------------------------------------------------------------
# 2. connected symmetric subgroup law


def test_criterion_2_connected_k_law(capsys):
    checked = 0
    for name in catalog_names():
        entry = catalog(name)
        if not entry.expected_k_connected:
            continue
        for lam in real_dominant_up_to(entry.spec, 20):
            assert in_image_semigroup(entry.spec, lam), (name, lam)
            checked += 1
    assert checked > 0
    with capsys.disabled():
        report(f"2 (connected-K law, {checked} coweights, zero exceptions)")


# ---------------------------------------------------------------------------
# 3. generation of the fixed positive cone


def test_criterion_3_cone_generation(capsys):
    checked = 0
    for name in catalog_names():
        spec = catalog(name).spec
        gens = restricted_coroot_generators(spec)
        for vec in positive_cone_reals(spec, 12):
            assert decomposes(spec.datum, gens, vec), (name, vec)
            checked += 1
    with capsys.disabled():
        report(f"3 (cone generation at height 12, {checked} vectors, exhaustive)")


# ---------------------------------------------------------------------------
# 4. order reversal and step-order equivalence


def test_criterion_4_order_reversal(capsys):
    pair_count = step_count = 0
    for name in catalog_names():
        spec = catalog(name).spec
        elements, reals = enumerate_orbits(spec, 20), real_dominant_up_to(spec, 12)
        assert duality(spec, elements) is None, name
        assert step_order(spec, reals) is None, name
        pair_count += len(elements) ** 2
        step_count += len(reals) ** 2
    with capsys.disabled():
        report(f"4 (order reversal on {pair_count} pairs, step order on {step_count} pairs)")


# ---------------------------------------------------------------------------
# 5. real-coweight criterion


def test_criterion_5_real_criterion(capsys):
    checked = 0
    for name in catalog_names():
        entry = catalog(name)
        for lam in dominant_up_to(entry.datum, 12):
            assert real_criterion(entry.spec, lam) == entry.spec.is_real(lam), (name, lam)
            checked += 1
    with capsys.disabled():
        report(f"5 (real criterion at height 12, {checked} coweights, exhaustive)")


# ---------------------------------------------------------------------------
# 6. matrix-model double-coset laws


@pytest.mark.parametrize("form_name", form_names())
def test_criterion_6_matrix_laws(form_name, capsys):
    assert matrix_invariance(form_action(form_name), ACCEPTANCE_SEED, 200) is None
    with capsys.disabled():
        report(f"6 ({form_name}: 200 loops at seed {ACCEPTANCE_SEED}, zero failures)")


# ---------------------------------------------------------------------------
# 7. duality pairing at geodesics


@pytest.mark.parametrize("entry_name,form_name", [("gl2_split", "gl2_split"), ("gl3_split", "gl3_split")])
def test_criterion_7_geodesic_duality(entry_name, form_name, capsys):
    spec = catalog(entry_name).spec
    form = form_action(form_name)
    members = enumerate_orbits(spec, 8)
    assert members
    for lam in members:
        c = geodesic_representative(form, lam)
        back = mat_mul(form.real_antiinvolution(c), c)
        assert loops_equal(back, diagonal_loop(form_name, lam)), lam
        assert k_orbit_invariant(c) == lam
        assert r_orbit_invariant(c) == lam
    refused = 0
    for lam in real_dominant_up_to(spec, 8):
        if in_image_semigroup(spec, lam):
            continue
        with pytest.raises(ValidationError, match="parity"):
            geodesic_representative(form, lam)
        refused += 1
    assert refused > 0
    with capsys.disabled():
        report(f"7 ({entry_name}: {len(members)} geodesics verified, {refused} refusals)")


# ---------------------------------------------------------------------------
# 8. hand-verified invariant values


def test_criterion_8_hand_verified_matrices(capsys):
    one = LaurentPoly.one()
    zero = LaurentPoly.zero()
    t = LaurentPoly.t_power(1)
    tinv = LaurentPoly.t_power(-1)

    unipotent = lm_from_rows("gl2_split", [[one, tinv], [zero, one]])
    assert stratum_invariant(unipotent) == (1, -1)
    assert splitting_type(unipotent) == (0, 0)

    shear = lm_from_rows("gl2_split", [[t, one], [zero, tinv]])
    assert splitting_type(shear) == (0, 0)
    assert stratum_invariant(shear) == (1, -1)

    diag = diagonal_loop("gl2_split", (2, -1))
    assert stratum_invariant(diag) == (2, -1)

    assert stratum_invariant(identity_loop("gl2_split", 2)) == (0, 0)
    with capsys.disabled():
        report("8 (hand-verified invariant matrices, exact)")
