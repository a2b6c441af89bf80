"""Packed Laurent polynomials against the dict-of-Gaussian oracle.

``DictLaurentPoly`` is the earlier representation of ``LaurentPoly``: one
normalized ``Gaussian`` per exponent, with ``Gaussian`` arithmetic per
coefficient.  The packed class must agree with it on every operation.
"""

import copy
import pickle
import random
from fractions import Fraction
from math import gcd

import pytest

import matsuki.loopmatrix as loopmatrix
from matsuki.errors import ValidationError
from matsuki.loopmatrix import Gaussian, LaurentPoly, determinant, lm_from_rows, mat_mul

from oracles import conjugate_poly

BIG = 10**9
DENOMINATORS = (1, 2, 3, 5, 10, 25)


class DictLaurentPoly:
    """A Laurent polynomial over Q(i): a finite exponent -> coefficient map
    with no stored zeros."""

    __slots__ = ("_c",)

    def __init__(self, coeffs=None):
        clean = {}
        if coeffs:
            for e, c in coeffs.items():
                if c:
                    clean[int(e)] = c
        object.__setattr__(self, "_c", clean)

    @staticmethod
    def _raw(clean: dict) -> "DictLaurentPoly":
        p = object.__new__(DictLaurentPoly)
        object.__setattr__(p, "_c", clean)
        return p

    def items(self):
        return self._c.items()

    def is_zero(self) -> bool:
        return not self._c

    def valuation(self) -> int:
        if not self._c:
            raise ValidationError("valuation of the zero polynomial")
        return min(self._c)

    def degree(self) -> int:
        if not self._c:
            raise ValidationError("degree of the zero polynomial")
        return max(self._c)

    def __add__(self, other):
        out = dict(self._c)
        for e, c in other._c.items():
            s = out.get(e, Gaussian(0)) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return DictLaurentPoly._raw(out)

    def __neg__(self):
        return DictLaurentPoly._raw({e: -c for e, c in self._c.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out = {}
        for e1, c1 in self._c.items():
            for e2, c2 in other._c.items():
                e = e1 + e2
                s = out.get(e)
                out[e] = c1 * c2 if s is None else s + c1 * c2
        return DictLaurentPoly._raw({e: c for e, c in out.items() if c})

    def scale(self, factor):
        if not factor:
            return DictLaurentPoly()
        return DictLaurentPoly._raw({e: c * factor for e, c in self._c.items()})

    def tau(self):
        return DictLaurentPoly._raw({-e: c for e, c in self._c.items()})

    def conjugate(self):
        return DictLaurentPoly._raw({e: c.conjugate() for e, c in self._c.items()})

    def __eq__(self, other):
        return self._c == other._c

    def __hash__(self):
        return hash(frozenset(self._c.items()))


def _assert_packed(p):
    """The packed form is normalized: no zero pairs, d > 0 and coprime to the
    numerators, d = 1 for zero."""
    assert type(p._d) is int and p._d > 0
    assert all(type(e) is int for e in p._c)
    assert all(a or b for a, b in p._c.values())
    assert gcd(p._d, *(x for pair in p._c.values() for x in pair)) == 1


def _exponents():
    from hypothesis import strategies as st

    return st.one_of(st.integers(-4, 4), st.integers(BIG - 3, BIG + 3), st.integers(-BIG - 3, -BIG + 3))


def _gaussians(denominators=DENOMINATORS):
    from hypothesis import strategies as st

    part = st.integers(-12, 12)
    return st.builds(
        lambda a, b, d: Gaussian(Fraction(a, d), Fraction(b, d)), part, part, st.sampled_from(denominators)
    )


def _term_maps(denominators=DENOMINATORS):
    from hypothesis import strategies as st

    return st.dictionaries(_exponents(), _gaussians(denominators), max_size=5)


def _assert_agree(got, want):
    _assert_packed(got)
    assert dict(got.items()) == want._c
    assert hash(got) == hash(want)
    assert got.is_zero() == want.is_zero()
    if want.is_zero():
        for query in (got.valuation, got.degree):
            with pytest.raises(ValidationError):
                query()
    else:
        assert (got.valuation(), got.degree()) == (want.valuation(), want.degree())


def test_packed_matches_dict_oracle():
    from hypothesis import given, settings

    @settings(max_examples=300, deadline=None)
    @given(_term_maps(), _term_maps(), _term_maps((1,)), _gaussians())
    def agree(m1, m2, m3, factor):
        p, q, r = LaurentPoly(m1), LaurentPoly(m2), LaurentPoly(m3)
        P, Q, R = DictLaurentPoly(m1), DictLaurentPoly(m2), DictLaurentPoly(m3)
        cases = [
            (p, P),
            (q, Q),
            (p + q, P + Q),
            (p - q, P - Q),
            (-p, -P),
            (p * q, P * Q),
            (p.scale(factor), P.scale(factor)),
            (p.tau(), P.tau()),
            (conjugate_poly(p), P.conjugate()),
            (p - p, P - P),
            (pickle.loads(pickle.dumps(p)), P),
            (copy.deepcopy(q), Q),
        ]
        for got, want in cases:
            _assert_agree(got, want)
        assert (p == q) == (P == Q)
        assert (p - p)._d == 1 and (p - p) == LaurentPoly()
        # equal values reached by different routes have equal fields and hashes
        for twin, base in (((p + q) - q, p), (p + (r - p), r), (LaurentPoly(m1), p)):
            assert twin == base and hash(twin) == hash(base)
            assert (twin._c, twin._d) == (base._c, base._d)
        assert (p + (r - p))._d == 1  # the common denominator of r - p cancels

    agree()


def test_common_denominator_reduces():
    half_t = LaurentPoly.t_power(1, Gaussian(Fraction(1, 2)))
    assert half_t._d == 2 and half_t._c == {1: (1, 0)}
    total = half_t + half_t
    assert total == LaurentPoly.t_power(1) and total._d == 1 and total._c == {1: (1, 0)}
    sixth = LaurentPoly({0: Gaussian(Fraction(1, 6)), 2: Gaussian(0, Fraction(1, 2))})
    assert (sixth._c, sixth._d) == ({0: (1, 0), 2: (0, 3)}, 6)
    third = LaurentPoly.constant(Fraction(1, 3))
    assert ((sixth + third)._c, (sixth + third)._d) == ({0: (1, 0), 2: (0, 1)}, 2)  # 1/2 + i/2 t^2
    zero = half_t - half_t
    assert zero.is_zero() and zero._d == 1 and zero == LaurentPoly.zero()
    assert (half_t * LaurentPoly.zero()) is loopmatrix.LP_ZERO


@pytest.mark.parametrize("exponent", [1.9, Fraction(3, 2)], ids=["float", "Fraction"])
def test_non_integral_exponents_are_rejected(exponent):
    # they were truncated: {1: 2, 1.9: 3} became 3t, with the coefficient 2 lost
    with pytest.raises(ValidationError, match="integers"):
        LaurentPoly({1: Gaussian(2), exponent: Gaussian(3)})
    with pytest.raises(ValidationError, match="integers"):
        LaurentPoly.t_power(exponent)


def _seeded_polys(seed):
    rng = random.Random(f"packed:{seed}")
    polys = []
    for _ in range(6):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            d = rng.choice(DENOMINATORS)
            terms[rng.randint(-3, 3)] = Gaussian(Fraction(rng.randint(-9, 9), d), Fraction(rng.randint(-9, 9), d))
        polys.append(LaurentPoly(terms))
    return polys


def test_arithmetic_builds_no_gaussian(monkeypatch):
    polys = _seeded_polys(0) + [LaurentPoly.zero()]
    factor = Gaussian(Fraction(2, 3), -1)
    loop = lm_from_rows("gl2_split", [polys[:2], polys[2:4]])

    def refuse(*_):
        raise AssertionError("a Gaussian was built inside the arithmetic")

    monkeypatch.setattr(loopmatrix, "_make", refuse)
    monkeypatch.setattr(Gaussian, "__init__", refuse)
    for p in polys:
        for q in polys:
            p * q, p + q, p - q
        p.tau(), p.scale(factor), -p
    mat_mul(loop, loop), determinant(loop)
    # the guard bites at the API boundary, where Gaussians are built
    with pytest.raises(AssertionError, match="inside the arithmetic"):
        polys[0].items()
