"""Contract of the immutable record base shared by the package's value classes."""

import pickle

import pytest

from matsuki.fundgroup import PiOneModel, pi1_model
from matsuki.loopmatrix import FormAction, LaurentMatrix, form_action, identity_loop
from matsuki.orbitposet import CoreData, PosetSlice, build_poset_slice, core_data
from matsuki.realform import InvolutionSpec, RealFormCatalogEntry, catalog
from matsuki.record import Record
from matsuki.rootdata import FiniteAbelianGroup, RootDatum, pi1_of_group, sl3_datum

# each class, its fields in constructor order, and a sample from the public API
RECORDS = {
    RootDatum: (("rank", "roots", "coroots", "simple_indices", "name"), sl3_datum),
    FiniteAbelianGroup: (("invariant_factors", "projection"), lambda: pi1_of_group(sl3_datum())),
    InvolutionSpec: (("datum", "theta", "name"), lambda: catalog("su21").spec),
    RealFormCatalogEntry: (("name", "spec", "expected_k_connected", "notes", "matrix_form"), lambda: catalog("su21")),
    PiOneModel: (
        ("group_pi1", "space_pi1", "image_generators", "image_index"),
        lambda: pi1_model(catalog("pgl2_so21").spec),
    ),
    CoreData: (
        ("coweight", "parabolic_simple_roots", "flag_dimension"),
        lambda: core_data(catalog("sl3_split").spec, (1, 1)),
    ),
    PosetSlice: (
        ("spec_name", "height_bound", "order", "elements", "hasse_edges", "component_count", "image_index"),
        lambda: build_poset_slice(catalog("sl3_split").spec, 6, "R"),
    ),
    LaurentMatrix: (("n", "entries", "form"), lambda: identity_loop("gl2_split", 2)),
    FormAction: (("name", "n", "family", "special", "entry"), lambda: form_action("u11")),
}

CLASSES = pytest.mark.parametrize("cls", list(RECORDS), ids=lambda c: c.__name__)


def _fresh(cls):
    """A new instance equal to the sample, built positionally, and its field tuple."""
    fields, sample = RECORDS[cls]
    values = tuple(getattr(sample(), f) for f in fields)
    return cls(*values), values


@CLASSES
def test_positional_and_keyword_construction_agree(cls):
    fields = RECORDS[cls][0]
    x, values = _fresh(cls)
    y = cls(**dict(zip(fields, values)))
    assert x == y == RECORDS[cls][1]() and x is not y
    assert hash(x) == hash(y) == hash(values)
    assert tuple(getattr(x, f) for f in fields) == values


@CLASSES
def test_assignment_and_deletion_raise(cls):
    x, _ = _fresh(cls)
    for name in RECORDS[cls][0] + ("extra",):
        with pytest.raises(AttributeError):
            setattr(x, name, None)
        with pytest.raises(AttributeError):
            delattr(x, name)


@CLASSES
def test_equality_is_within_the_class(cls):
    x, values = _fresh(cls)

    class Twin(cls):
        pass

    twin = Twin(*values)
    assert twin._fields == x._fields
    assert x != twin and twin != x
    assert x != values
    assert twin == Twin(*values)


@CLASSES
def test_repr_lists_the_fields(cls):
    fields = RECORDS[cls][0]
    x, values = _fresh(cls)
    body = ", ".join(f"{f}={v!r}" for f, v in zip(fields, values))
    assert repr(x) == f"{cls.__name__}({body})"


@CLASSES
def test_hash_is_computed_once(cls, monkeypatch):
    x, values = _fresh(cls)
    h = hash(x)

    def rebuilt(self):
        raise AssertionError("field tuple rebuilt for a second hash")

    monkeypatch.setattr(cls, "_values", rebuilt)
    assert hash(x) == h == hash(values)


@CLASSES
def test_reduce_rebuilds_from_the_fields(cls):
    x, values = _fresh(cls)
    hash(x)
    # the cached hash is not carried along: str hashes differ between processes
    assert x.__reduce__() == (cls, values)


def test_pickle_round_trip():
    spec = catalog("su21").spec
    copy = pickle.loads(pickle.dumps(spec))
    assert copy == spec and hash(copy) == hash(spec) and copy is not spec


def test_defaults_are_kept():
    spec = catalog("su21").spec
    assert InvolutionSpec(spec.datum, spec.theta).name == ""
    assert RootDatum(1, (), (), ()).name == ""
    form = FormAction("f", 2, "split", False)
    assert form.entry == ""


def test_cached_properties_still_work():
    spec = catalog("su21").spec
    fresh = InvolutionSpec(spec.datum, spec.theta, spec.name)
    h = hash(fresh)
    assert fresh.moving_rows == ((1, -1),)
    assert fresh.moving_rows is fresh.moving_rows
    datum = sl3_datum()
    assert datum.coroot_solver == (1, ((1, 0), (0, 1)), ())
    assert datum.coroot_solver is datum.coroot_solver
    assert hash(fresh) == h and fresh == spec


def test_field_without_default_after_default_is_refused():
    with pytest.raises(TypeError):
        class Bad(Record):
            a: int = 0
            b: int
