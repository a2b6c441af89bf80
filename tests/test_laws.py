"""The laws behind ``matsuki check``, and the intersection law beside them,
catch planted defects: run at the bounds of ``check`` with one name they read
replaced by a wrong one, they return a counterexample on exactly the entries
or forms that can show it."""

from matsuki import laws, loopmatrix, orbitposet
from matsuki.loopmatrix import form_action, form_names
from matsuki.realform import catalog, catalog_names
from matsuki.rootdata import dominance_leq

# sl2_compact has one orbit index and gl1_split no roots: neither has two
# distinct comparable elements, so no defect of an order can show on them
WITH_STRICT_PAIRS = set(catalog_names()) - {"sl2_compact", "gl1_split"}


def _caught(law, elements):
    return {name for name in catalog_names() if law(catalog(name).spec, elements(catalog(name).spec)) is not None}


def _slice(spec):
    return orbitposet.enumerate_orbits(spec, 10)


def test_an_unreversed_r_order_is_caught(monkeypatch):
    monkeypatch.setattr(laws, "r_leq", orbitposet.k_leq)
    assert _caught(laws.duality, _slice) == WITH_STRICT_PAIRS


def test_a_step_order_with_swapped_arguments_is_caught(monkeypatch):
    monkeypatch.setattr(laws, "real_step_leq", lambda spec, a, b: orbitposet.real_step_leq(spec, b, a))
    assert _caught(laws.step_order, lambda spec: laws.real_dominant_up_to(spec, 8)) == WITH_STRICT_PAIRS


def test_a_dropped_hasse_edge_is_caught(monkeypatch):
    # the covers of primitive_relations, which the Hasse law reads and the
    # slice that ``chain_structure`` reads takes, lose their last edge
    right = orbitposet.primitive_relations
    for module in (orbitposet, laws):
        monkeypatch.setattr(module, "primitive_relations", lambda spec, elements: right(spec, elements)[:-1])
    assert _caught(laws.hasse_closure, _slice) == WITH_STRICT_PAIRS
    spec = catalog("pgl2_so21").spec
    slice_ = orbitposet.build_poset_slice(spec, 12, "K")
    assert laws.chain_structure(spec, slice_) == "Hasse edges are not the consecutive chain"


def test_an_image_index_of_one_is_caught_on_the_adjoint_chain(monkeypatch):
    # the index of a connected symmetric subgroup, read on pgl2_so21, whose O2(C) is not
    monkeypatch.setattr(orbitposet, "image_index", lambda spec: 1)
    spec = catalog("pgl2_so21").spec
    assert laws.chain_structure(spec, orbitposet.build_poset_slice(spec, 12, "K")) == "image index 1, expected 2"


def test_a_birkhoff_type_read_as_the_cartan_type_is_caught(monkeypatch):
    # on gl1_split both types are the exponent of the determinant
    monkeypatch.setattr(laws, "splitting_type", loopmatrix.stratum_invariant)
    caught = {name for name in form_names() if laws.matrix_invariance(form_action(name), 0, 12) is not None}
    assert caught == set(form_names()) - {"gl1_split"}


def test_a_step_order_read_backwards_fails_generation(monkeypatch):
    monkeypatch.setattr(laws, "real_step_leq", lambda spec, a, b: orbitposet.real_step_leq(spec, b, a))
    assert _caught(laws.generation, lambda spec: laws.positive_cone_reals(spec, 10)) == WITH_STRICT_PAIRS
    spec = catalog("sl3_split").spec
    problem = laws.generation(spec, laws.positive_cone_reals(spec, 10))
    assert problem == "(0,1) does not decompose into restricted generators"


def _matrix_problems():
    """The counterexample of ``matrix_invariance`` at the bounds of ``check``,
    per form that shows one."""
    problems = {name: laws.matrix_invariance(form_action(name), 0, 12) for name in form_names()}
    return {name: problem for name, problem in problems.items() if problem is not None}


def test_dominance_read_backwards_puts_birkhoff_above_cartan(monkeypatch):
    monkeypatch.setattr(laws, "dominance_leq", lambda datum, a, b: dominance_leq(datum, b, a))
    problems = _matrix_problems()
    assert set(problems) == set(form_names()) - {"gl1_split"}
    assert problems["gl3_split"] == "Birkhoff (0,0,0) not below Cartan (2,0,-2) at loop 0"


def test_a_cartan_type_read_as_the_birkhoff_type_is_caught(monkeypatch):
    monkeypatch.setattr(laws, "stratum_invariant", loopmatrix.splitting_type)
    problems = _matrix_problems()
    assert set(problems) == {"gl2_split", "sl2_split", "u11", "u21"}
    assert problems["gl2_split"] == "Cartan invariance fails at loop 6"


def test_an_unsymmetrized_k_orbit_invariant_is_caught(monkeypatch):
    monkeypatch.setattr(laws, "k_orbit_invariant", loopmatrix.stratum_invariant)
    problems = _matrix_problems()
    assert set(problems) == set(form_names()) - {"gl1_split"}
    assert problems["gl3_split"] == "k-orbit invariance fails at loop 0"


def test_an_r_orbit_invariant_read_as_the_k_orbit_invariant_is_caught(monkeypatch):
    monkeypatch.setattr(laws, "r_orbit_invariant", loopmatrix.k_orbit_invariant)
    assert _matrix_problems() == {
        "sl3_split": "r-orbit invariance fails at loop 7",
        "u11": "r-orbit invariance fails at loop 6",
    }


def test_a_geodesic_taken_as_the_diagonal_loop_is_caught(monkeypatch):
    # t^lam itself symmetrizes to t^(2 lam), not t^lam
    monkeypatch.setattr(laws, "geodesic_representative", lambda form, lam: loopmatrix.diagonal_loop(form.name, lam))
    assert _matrix_problems() == dict.fromkeys(
        ("gl2_split", "gl3_split", "sl2_split", "sl3_split"), "geodesic duality pairing fails"
    )


# ---------------------------------------------------------------------------
# the intersection law, a test and not a suite of ``check``


def _intersection_problems(seed):
    """The counterexample of ``intersection`` on 12 seeded loops, per form that shows one."""
    problems = {name: laws.intersection(form_action(name), seed, 12) for name in form_names()}
    return {name: problem for name, problem in problems.items() if problem is not None}


def test_the_intersection_law_holds_on_every_form():
    assert _intersection_problems(0) == _intersection_problems(7) == {}


def test_a_k_r_swap_that_check_misses_is_caught_by_the_intersection_law(monkeypatch):
    # each orbit invariant read as the other: at seed 0 ``matrix_invariance``
    # sees it on two forms only; on gl1_split the two invariants agree
    monkeypatch.setattr(laws, "k_orbit_invariant", loopmatrix.r_orbit_invariant)
    monkeypatch.setattr(laws, "r_orbit_invariant", loopmatrix.k_orbit_invariant)
    assert set(_matrix_problems()) == {"sl3_split", "u11"}
    problems = _intersection_problems(0)
    assert set(problems) == set(form_names()) - {"gl1_split"}
    assert problems["gl2_split"] == "R-orbit invariant (2,-2) not below K-orbit invariant (0,0) at loop 1"


def test_an_r_orbit_invariant_read_as_the_splitting_type_is_caught_by_the_intersection_law(monkeypatch):
    # at seed 0 ``matrix_invariance`` misses it on u21, which runs no geodesic
    # pairing, and sees it on the split forms through that pairing
    monkeypatch.setattr(laws, "r_orbit_invariant", loopmatrix.splitting_type)
    assert set(_matrix_problems()) == set(form_names()) - {"gl1_split", "u21"}
    problems = _intersection_problems(0)
    assert set(problems) == set(form_names()) - {"gl1_split"}
    assert problems["u21"] == "R-orbit invariant (1,-2,-2) not below K-orbit invariant (4,0,-4) at loop 10"
