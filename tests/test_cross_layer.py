"""The two layers index the same orbits: the matrix layer's K-orbit and
R-orbit invariants, mapped into catalog coordinates by ``to_entry``, lie in
the entry's parameterizing sub-semigroup, and every orbit index of a split
entry comes back from its geodesic loop."""

import random

import pytest

from matsuki.errors import TheoremViolationError, ValidationError
from matsuki.fundgroup import in_image_semigroup
from matsuki.laws import seeded_loop
from matsuki.loopmatrix import (
    FormAction,
    diagonal_loop,
    form_action,
    form_names,
    geodesic_representative,
    k_orbit_invariant,
    mat_mul,
    r_orbit_invariant,
    random_k_loop,
    random_polynomial_loop,
    random_real_loop,
)
from matsuki.orbitposet import enumerate_orbits
from matsuki.realform import InvolutionSpec, catalog

LOOPS_PER_FORM = 40


def _seeded_loop(form, i):
    """The i-th seeded real*K*polynomial loop of the form."""
    return mat_mul(
        mat_mul(random_real_loop(form, 3 * i), random_k_loop(form, 3 * i + 1)),
        random_polynomial_loop(form, 3 * i + 2),
    )


def _odd_loop(form, i):
    """The i-th seeded loop times diag(t^mu) with mu of odd sum.  On a split gl
    form its K-orbit and R-orbit invariants then sum to 2 mod 4, so they test
    the image-class side of the law, which every seeded loop, with invariants
    summing to 0, leaves untested."""
    rng = random.Random(f"odd:{form.name}:{i}")
    mu = [rng.randint(-3, 3) for _ in range(form.n)]
    mu[0] += 1 - sum(mu) % 2
    return mat_mul(_seeded_loop(form, i), diagonal_loop(form.name, tuple(mu)))


def _cross_layer_misses(form, loop=_seeded_loop, count=LOOPS_PER_FORM):
    """The invariants of the form's first count loops that miss the entry's
    sub-semigroup, and the invariant checks that raised; empty when the law
    holds."""
    spec = catalog(form.entry).spec
    misses = []
    for i in range(count):
        g = loop(form, i)
        try:
            invariants = (k_orbit_invariant(g), r_orbit_invariant(g))
        except TheoremViolationError as exc:
            misses.append((i, str(exc)))
            continue
        for lam in invariants:
            mu = form.to_entry(lam)
            try:
                member = mu is not None and in_image_semigroup(spec, mu)
            except ValidationError:
                member = False
            if not member:
                misses.append((i, lam))
    return misses


@pytest.mark.parametrize("name", form_names())
def test_orbit_invariants_lie_in_the_entry_sub_semigroup(name):
    assert _cross_layer_misses(form_action(name)) == []


@pytest.mark.parametrize("name", form_names())
def test_the_law_holds_on_the_acceptance_loops(name):
    # the loops of acceptance criterion 6: 200 per form at seed 7
    assert _cross_layer_misses(form_action(name), lambda form, i: seeded_loop(form, 7, i), 200) == []


def test_a_wrong_map_to_the_entry_is_caught(monkeypatch):
    # the map of ``to_entry``, which ``lattice_fixed`` reads with the catalog entry it already holds
    right = FormAction._coordinates

    def identity_on_u21(self, lam, entry):
        return tuple(lam) if self.name == "u21" else right(self, lam, entry)

    monkeypatch.setattr(FormAction, "_coordinates", identity_on_u21)
    assert _cross_layer_misses(form_action("u21"))

    def entries_not_sums_on_sl3(self, lam, entry):
        return tuple(lam[:-1]) if self.name == "sl3_split" else right(self, lam, entry)

    monkeypatch.setattr(FormAction, "_coordinates", entries_not_sums_on_sl3)
    assert _cross_layer_misses(form_action("sl3_split"))


ODD_FORMS = ("gl1_split", "gl2_split", "gl3_split")


@pytest.mark.parametrize("name", ODD_FORMS)
def test_invariants_of_odd_loops_lie_in_the_image_class(name):
    form = form_action(name)
    loops = [_odd_loop(form, i) for i in range(LOOPS_PER_FORM)]
    assert {sum(f(g)) % 4 for g in loops for f in (k_orbit_invariant, r_orbit_invariant)} == {2}
    assert _cross_layer_misses(form, _odd_loop) == []


@pytest.mark.parametrize("name", ODD_FORMS)
def test_a_wrong_image_class_is_caught(name, monkeypatch):
    right = InvolutionSpec.image_lattice

    def doubled_moduli(spec):
        gens, group, class_rows = right.__get__(spec)
        return gens, group, tuple((row, 2 * m) for row, m in class_rows)

    # a data descriptor: it wins over the value cached on the catalog spec
    monkeypatch.setattr(InvolutionSpec, "image_lattice", property(doubled_moduli))
    assert _cross_layer_misses(form_action(name), _odd_loop)


def _from_entry(form, mu):
    """The gl coweight with entry coordinates mu: mu itself on a rank-n entry,
    successive differences of 0, mu_1, ..., mu_(n-1), 0 on a rank n-1 one."""
    if len(mu) == form.n:
        return mu
    return tuple(b - a for a, b in zip((0,) + mu, mu + (0,)))


def test_every_orbit_index_comes_back_from_its_geodesic():
    checked = 0
    for name in ("gl1_split", "gl2_split", "gl3_split", "sl2_split", "sl3_split"):
        form = form_action(name)
        for mu in enumerate_orbits(catalog(form.entry).spec, 8):
            lam = _from_entry(form, mu)
            assert form.to_entry(lam) == mu
            c = geodesic_representative(form, lam)
            assert (k_orbit_invariant(c), r_orbit_invariant(c)) == (lam, lam), (name, mu)
            checked += 1
    assert checked == 193


def test_every_unitary_orbit_index_comes_back_from_a_diagonal_loop():
    # with the 5 split forms above, every form realizes each of its orbit indices
    checked = 0
    for name in ("u11", "u21"):
        form = form_action(name)
        for mu in enumerate_orbits(catalog(form.entry).spec, 40):
            g = diagonal_loop(name, (mu[0],) + (0,) * (form.n - 1))
            assert (form.to_entry(k_orbit_invariant(g)), form.to_entry(r_orbit_invariant(g))) == (mu, mu), (name, mu)
            checked += 1
    assert checked == 21 + 11
