"""Involution validation, fixed sublattices, Levi data, and the catalog."""

import gc
import inspect
import random
import re
import textwrap
import weakref
from itertools import product

import pytest

from matsuki import realform
from matsuki.cli import main
from matsuki.errors import ValidationError
from matsuki.realform import (
    MAX_RANK,
    InvolutionSpec,
    catalog,
    catalog_names,
    levi_simple_roots,
    validate_involution,
)
from matsuki.rootdata import (
    RootDatum,
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
    reference_validate_involution,
    reflection_matrix,
    satake_involutions,
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


def test_theta_of_the_wrong_shape_is_refused_before_any_product(monkeypatch):
    monkeypatch.setattr(realform, "mat_mul", None)
    for theta in (identity_matrix(3), ((1, 0), (0,))):
        assert validate_involution(InvolutionSpec(sl3_datum(), theta)) == ["theta must be a 2x2 integer matrix"]
    # so is a rank over the bound, which the file reader refuses before the datum is walked
    n = MAX_RANK + 1
    spec = InvolutionSpec(RootDatum(rank=n, roots=(), coroots=(), simple_indices=()), identity_matrix(n))
    assert validate_involution(spec) == [f"rank {n} is over the bound of {MAX_RANK}"]


def test_a_theta_that_breaks_positivity_is_refused():
    # gl3 with e1 and e3 swapped: theta squares to 1 and permutes the roots, but
    # its transpose sends the simple root e1 - e2, outside the empty M, to the
    # negative root e3 - e2
    spec = InvolutionSpec(gl_datum(3), ((0, 0, 1), (0, 1, 0), (1, 0, 0)))
    assert validate_involution(spec) == [
        "Araki's first condition fails: theta sends the simple root (1, -1, 0) outside M to the negative root (0, -1, 1)"
    ]


def test_a_theta_that_permutes_the_coroots_but_not_the_roots_is_refused():
    # on gl3, theta^T sends the simple root e1 - e2 to 2 e1 + e2, no root, though theta sends
    # every coroot to a coroot: the coroot scan let it through, and Araki's second condition refused it
    spec = InvolutionSpec(gl_datum(3), ((1, 0, 0), (-1, -1, 0), (-1, 0, -1)))
    assert validate_involution(spec) == [
        "theta does not permute the root-coroot pairs (root (2, 1, 0) with coroot (1, 0, -1) missing)"
    ]
    assert reference_validate_involution(spec)[0].startswith("Araki's second condition fails")
    assert validate_involution(TWISTED) == [
        "theta does not permute the root-coroot pairs (root (0, -2) with coroot (1, -1) missing)"
    ]
    assert reference_validate_involution(TWISTED) == []


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
    [("first", "if min(c) < 0:", "if False:"),
     ("second", "and (p := dot(datum.roots[i], two_rho_levi)) % 2:", "and False:")],
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


# theta squares to 1 and permutes the coroots, but its transpose sends the root (2, 0) to (0, -2)
TWISTED = InvolutionSpec(RootDatum(rank=2, roots=((2, 0), (-2, 0)), coroots=((1, -1), (-1, 1)), simple_indices=(0,),
                                   name="twisted"), ((0, -1), (-1, 0)), name="twisted")


def permutes_pairs(spec):
    """Whether theta is an involution that maps every listed (root, coroot) pair (a, b) to a listed
    pair (theta^T a, theta b): checked pair by pair, not on the simple pairs only."""
    datum, theta = spec.datum, spec.theta
    pairs, transpose = set(zip(datum.roots, datum.coroots)), tuple(zip(*theta))
    return (mat_mul(theta, theta) == identity_matrix(datum.rank)
            and all((mat_vec(transpose, a), mat_vec(theta, b)) in pairs for a, b in pairs))


def seeded_mutants(spec, rng, count):
    """Involutions g t g^-1 of the lattice, rarely automorphisms of the datum: t is theta on odd k and a
    random diagonal of signs on even k, g a product of up to three elementary matrices 1 + c E_ij."""
    n = spec.datum.rank
    for k in range(count):
        theta = spec.theta if k % 2 else tuple(tuple(rng.choice((-1, 1)) * (r == s) for s in range(n)) for r in range(n))
        for _ in range(rng.randrange(1, 4) if n > 1 else 0):
            i, j = rng.sample(range(n), 2)
            c = rng.choice((-2, -1, 1, 2))
            g = tuple(tuple(int(r == s) + c * (r == i and s == j) for s in range(n)) for r in range(n))
            g_inv = tuple(tuple(int(r == s) - c * (r == i and s == j) for s in range(n)) for r in range(n))
            theta = mat_mul(mat_mul(g, theta), g_inv)
        yield InvolutionSpec(spec.datum, theta, name=f"{spec.name}_mutant{k}")


def test_the_simple_pairs_decide_what_the_coroot_scan_and_w_m_decided():
    specs = valid_specs() + list(satake_involutions())
    specs += [spec for n in range(2, 6) for spec in gl_permutation_involutions(n)]
    specs += [spec for name in CARTAN for spec in levi_involutions(name)]
    specs += [spec for name in ("B2", "G2", "B3", "C3") for spec in signed_weyl_involutions(cartan_datum(name))]
    specs += list(signed_weyl_involutions(sl3_datum())) + [TWISTED]
    rng = random.Random(48)
    specs += [mutant for spec in valid_specs() + [TWISTED] for mutant in seeded_mutants(spec, rng, 6)]
    extra = automorphisms = 0
    for spec in specs:
        problems, reference = validate_involution(spec), reference_validate_involution(spec)
        if permutes_pairs(spec):
            automorphisms += 1
            assert [p.split(":")[0] for p in problems] == [p.split(":")[0] for p in reference], spec.theta
            assert problems == reference or problems[0].startswith("Araki's first"), spec.theta
        else:  # refused before Araki's conditions are read
            assert problems and not any(p.startswith("Araki") for p in problems), spec.theta
            extra += not reference
    assert (len(specs), automorphisms, extra) == (892, 614, 2)  # the extra two: TWISTED and a gl2 mutant


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
