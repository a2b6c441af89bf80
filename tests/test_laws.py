"""The laws behind ``matsuki check`` catch planted defects: run at the bounds
of ``check`` with one name they read replaced by a wrong one, they return a
counterexample on exactly the entries or forms that can show it."""

from matsuki import laws, loopmatrix, orbitposet
from matsuki.loopmatrix import form_action, form_names
from matsuki.realform import catalog, catalog_names

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
    # the cover sweep under both primitive_relations, which the Hasse law
    # reads, and the slice, which ``chain_structure`` reads
    right = orbitposet._hasse_edges
    monkeypatch.setattr(orbitposet, "_hasse_edges", lambda classes: right(classes)[:-1])
    assert _caught(laws.hasse_closure, _slice) == WITH_STRICT_PAIRS
    spec = catalog("pgl2_so21").spec
    slice_ = orbitposet.build_poset_slice(spec, 12, "K")
    assert laws.chain_structure(spec, slice_) == "Hasse edges are not the consecutive chain"


def test_a_birkhoff_type_read_as_the_cartan_type_is_caught(monkeypatch):
    # on gl1_split both types are the exponent of the determinant
    monkeypatch.setattr(laws, "splitting_type", loopmatrix.stratum_invariant)
    caught = {name for name in form_names() if laws.matrix_invariance(form_action(name), 0, 12) is not None}
    assert caught == set(form_names()) - {"gl1_split"}
