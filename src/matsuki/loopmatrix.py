"""Exact type-A matrix model for loop-group elements and their coset invariants.

Loops are square matrices of Laurent polynomials with Gaussian-rational
coefficients.  Four discrete invariants are computed here:

- ``stratum_invariant``: the dominant coweight of the power-series double
  coset, read off from the determinantal divisors (least t-valuations of the
  k x k minors);
- ``splitting_type``: the dominant coweight of the two-sided polynomial double
  coset, i.e. the splitting type of the glued bundle on the projective line,
  read off as the column degrees of a column-reduced polynomial matrix, with
  fraction-free kernel solves on Gaussian-integer columns;
- ``k_orbit_invariant`` and ``r_orbit_invariant``: the stratum and splitting
  invariants of the symmetrized loops attached to a form.

All arithmetic is exact and runs on Python integers: a Gaussian rational is
a normalized integer triple (a, b, d) meaning (a + b*i)/d, and a Laurent
polynomial packs its Gaussian-integer numerators over one common denominator;
nothing is ever floating point.  The unitary forms conjugate by the
anti-diagonal J, and J X J is X turned by 180 degrees, never a product.

Every public entry point computes the determinant of the loop it is given
once and rejects a non-unit one with ValidationError.  Along a call chain the
unit monomial (e, c) of det(g) = c*t^e is then passed on: ``mat_inverse``
accepts it, and the determinants of derived loops (inverse, symmetrized and
real-symmetrized loops) follow from it by monomial algebra.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import gcd, lcm
from operator import index, mul

from .errors import TheoremViolationError, ValidationError
from .record import Record
from .rootdata import Coweight, IntMatrix

# ---------------------------------------------------------------------------
# Gaussian rationals


class Gaussian:
    """An element of Q(i), stored as normalized integers ``(a, b, d)`` that
    mean (a + b*i)/d, with d > 0 and gcd(a, b, d) = 1.

    Normalization makes the fields unique, so equality compares them
    directly; the hash is that of the ``(re, im)`` pair of Fractions.
    ``re`` and ``im`` are returned as Fractions for callers outside the
    arithmetic; code in the package reads the integer fields.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            a, b, d = re, im, 1
        else:
            re, im = Fraction(re), Fraction(im)
            q, s = re.denominator, im.denominator
            d = q * s // gcd(q, s)  # lcm; both parts are in lowest terms, so gcd(a, b, d) = 1
            a, b = re.numerator * (d // q), im.numerator * (d // s)
        _set_a(self, a)
        _set_b(self, b)
        _set_d(self, d)

    def __setattr__(self, *_):
        raise AttributeError("Gaussian values are immutable")

    def __reduce__(self):
        return _make, (self.a, self.b, self.d)

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.d)

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __eq__(self, other):
        if not isinstance(other, Gaussian):
            return NotImplemented
        return self.a == other.a and self.b == other.b and self.d == other.d

    def __hash__(self):
        return hash((self.re, self.im))

    def __add__(self, other):
        d, e = self.d, other.d
        if d == e:
            return _norm(self.a + other.a, self.b + other.b, d)
        return _norm(self.a * e + other.a * d, self.b * e + other.b * d, d * e)

    def __sub__(self, other):
        d, e = self.d, other.d
        if d == e:
            return _norm(self.a - other.a, self.b - other.b, d)
        return _norm(self.a * e - other.a * d, self.b * e - other.b * d, d * e)

    def __neg__(self):
        return _make(-self.a, -self.b, self.d)

    def __mul__(self, other):
        a, b, c, e = self.a, self.b, other.a, other.b
        return _norm(a * c - b * e, a * e + b * c, self.d * other.d)

    def __truediv__(self, other):
        c, e = other.a, other.b
        norm = c * c + e * e
        if norm == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        # (a + bi)/d divided by (c + ei)/f is f(a + bi)(c - ei) / (d(c^2 + e^2))
        a, b, f = self.a, self.b, other.d
        return _norm(f * (a * c + b * e), f * (b * c - a * e), self.d * norm)

    def conjugate(self) -> "Gaussian":
        return _make(self.a, -self.b, self.d)

    def __repr__(self):
        return f"Gaussian({self.re}, {self.im})"


_set_a = Gaussian.a.__set__
_set_b = Gaussian.b.__set__
_set_d = Gaussian.d.__set__


def _make(a: int, b: int, d: int) -> Gaussian:
    # internal constructor for fields that are already normalized
    g = object.__new__(Gaussian)
    _set_a(g, a)
    _set_b(g, b)
    _set_d(g, d)
    return g


def _norm(a: int, b: int, d: int) -> Gaussian:
    # normalizing constructor for any d > 0; skips the gcd when d == 1
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a, b, d = a // g, b // g, d // g
    return _make(a, b, d)


G_ZERO = Gaussian(0)
G_ONE = Gaussian(1)
G_I = Gaussian(0, 1)
HALF = Gaussian(Fraction(1, 2))
HALF_OVER_I = Gaussian(0, Fraction(-1, 2))  # 1/(2i)


# ---------------------------------------------------------------------------
# Laurent polynomials


class LaurentPoly:
    """A Laurent polynomial over Q(i): ``_c`` maps each exponent to a nonzero
    Gaussian-integer numerator pair ``(a, b)`` meaning (a + b*i)/d, over the
    least common denominator ``_d`` (d > 0, coprime to the numerators, 1 for
    zero).  The form is unique, so equality compares the fields.  Arithmetic
    runs on the ints and normalizes once per result; ``items``, ``coeff`` and
    ``monomial`` build ``Gaussian`` values on demand."""

    __slots__ = ("_c", "_d")

    def __init__(self, coeffs=None):
        try:
            terms = {index(e): c for e, c in (coeffs or {}).items()}
        except TypeError:
            raise ValidationError(f"exponents must be integers, got {list(coeffs)}") from None
        # each coefficient is in lowest terms, so the lcm leaves no common factor
        d = lcm(*(c.d for c in terms.values()))
        _set_c(self, {e: (c.a * (d // c.d), c.b * (d // c.d)) for e, c in terms.items() if c})
        _set_den(self, d)

    def __setattr__(self, *_):
        raise AttributeError("LaurentPoly values are immutable")

    def __reduce__(self):
        return _raw, (self._c, self._d)

    # constructors
    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({0: G_ONE})

    @classmethod
    def t_power(cls, e: int, coeff: Gaussian = G_ONE):
        return cls({e: coeff})

    @classmethod
    def constant(cls, value) -> "LaurentPoly":
        return cls({0: value if isinstance(value, Gaussian) else Gaussian(value)})

    # queries
    def items(self) -> list[tuple[int, Gaussian]]:
        d = self._d
        return [(e, _norm(a, b, d)) for e, (a, b) in self._c.items()]

    def coeff(self, e: int) -> Gaussian:
        pair = self._c.get(e)
        return G_ZERO if pair is None else _norm(*pair, self._d)

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

    def monomial(self) -> tuple[int, Gaussian] | None:
        """(exponent, coefficient) when the polynomial has a single term."""
        if len(self._c) != 1:
            return None
        (e, (a, b)), = self._c.items()
        return e, _norm(a, b, self._d)

    # arithmetic
    def _combine(self, other, sign: int) -> "LaurentPoly":
        """self + sign * other over the least common denominator."""
        if not other._c:
            return self
        if not self._c:
            return other if sign > 0 else -other
        d, f = self._d, other._d
        g = gcd(d, f)
        m, n, d = f // g, sign * d // g, d // g * f
        out = dict(self._c) if m == 1 else {e: (a * m, b * m) for e, (a, b) in self._c.items()}
        for e, (a, b) in other._c.items():
            s = out.get(e)
            if s is None:
                out[e] = (a * n, b * n)
            else:
                x, y = s[0] + a * n, s[1] + b * n
                if x or y:
                    out[e] = (x, y)
                else:
                    del out[e]
        return _packed(out, d)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return _raw({e: (-a, -b) for e, (a, b) in self._c.items()}, self._d)

    def __mul__(self, other):
        if not self._c or not other._c:
            return LP_ZERO
        out: dict[int, tuple[int, int]] = {}
        for e1, (a1, b1) in self._c.items():
            for e2, (a2, b2) in other._c.items():
                e = e1 + e2
                x, y = a1 * a2 - b1 * b2, a1 * b2 + b1 * a2
                s = out.get(e)
                out[e] = (x, y) if s is None else (s[0] + x, s[1] + y)
        return _packed({e: s for e, s in out.items() if s[0] or s[1]}, self._d * other._d)

    def scale(self, factor: Gaussian) -> "LaurentPoly":
        if not factor:
            return LP_ZERO
        p, q = factor.a, factor.b
        return _packed({e: (a * p - b * q, a * q + b * p) for e, (a, b) in self._c.items()}, self._d * factor.d)

    def shift(self, k: int) -> "LaurentPoly":
        try:
            k = index(k)
        except TypeError:
            raise ValidationError(f"shift must be an integer, got {k!r}") from None
        return _raw({e + k: pair for e, pair in self._c.items()}, self._d)

    def tau(self) -> "LaurentPoly":
        """Substitute t -> 1/t."""
        return _raw({-e: pair for e, pair in self._c.items()}, self._d)

    def conjugate(self) -> "LaurentPoly":
        """Conjugate the coefficients; t stays t."""
        return _raw({e: (a, -b) for e, (a, b) in self._c.items()}, self._d)

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._d == other._d and self._c == other._c

    def __hash__(self):
        return hash(frozenset(self.items()))

    def __repr__(self):
        if not self._c:
            return "0"

        def term(e, c):
            coeff = f"({c.re}{'+' if c.im >= 0 else '-'}{abs(c.im)}i)"
            if e == 0:
                return coeff
            power = "t" if e == 1 else f"t^{e}"
            return f"{coeff}*{power}"

        return " + ".join(term(e, c) for e, c in sorted(self.items()))


_set_c = LaurentPoly._c.__set__
_set_den = LaurentPoly._d.__set__


def _raw(c: dict, d: int) -> LaurentPoly:
    # internal constructor for fields that are already normalized
    p = object.__new__(LaurentPoly)
    _set_c(p, c)
    _set_den(p, d)
    return p


def _packed(c: dict, d: int) -> LaurentPoly:
    # normalizing constructor for numerator pairs without zero pairs, any d > 0
    if d != 1:
        g = d
        for a, b in c.values():
            g = gcd(g, a, b)
            if g == 1:
                break
        else:
            c, d = {e: (a // g, b // g) for e, (a, b) in c.items()}, d // g
    return _raw(c, d)


LP_ZERO = LaurentPoly.zero()
LP_ONE = LaurentPoly.one()


# ---------------------------------------------------------------------------
# Laurent matrices


class LaurentMatrix(Record):
    """A square matrix of Laurent polynomials tagged with its ambient form."""

    n: int
    entries: tuple[tuple[LaurentPoly, ...], ...]
    form: str

    def entry(self, i: int, j: int) -> LaurentPoly:
        return self.entries[i][j]


def lm_from_rows(form: str, rows) -> LaurentMatrix:
    rows = tuple(tuple(r) for r in rows)
    n = len(rows)
    if n == 0 or any(len(r) != n for r in rows):
        raise ValidationError("loop matrix must be square and non-empty")
    return LaurentMatrix(n=n, entries=rows, form=form)


def identity_loop(form: str, n: int) -> LaurentMatrix:
    return lm_from_rows(
        form, [[LP_ONE if i == j else LP_ZERO for j in range(n)] for i in range(n)]
    )


def diagonal_loop(form: str, exponents) -> LaurentMatrix:
    n = len(exponents)
    return lm_from_rows(
        form,
        [
            [LaurentPoly.t_power(exponents[i]) if i == j else LP_ZERO for j in range(n)]
            for i in range(n)
        ],
    )


def mat_mul(a: LaurentMatrix, b: LaurentMatrix) -> LaurentMatrix:
    if a.n != b.n:
        raise ValidationError("size mismatch in matrix product")
    cols = tuple(zip(*b.entries))
    return lm_from_rows(a.form, [[sum(map(mul, row, col), LP_ZERO) for col in cols] for row in a.entries])


def transpose(g: LaurentMatrix) -> LaurentMatrix:
    return lm_from_rows(g.form, tuple(zip(*g.entries)))


def apply_tau(g: LaurentMatrix) -> LaurentMatrix:
    """Entrywise substitution t -> 1/t."""
    return lm_from_rows(g.form, [[p.tau() for p in row] for row in g.entries])


def apply_conjugation(g: LaurentMatrix) -> LaurentMatrix:
    """Entrywise coefficient conjugation."""
    return lm_from_rows(g.form, [[p.conjugate() for p in row] for row in g.entries])


def _det(rows) -> LaurentPoly:
    """Determinant of a square list of rows: closed forms up to 2x2, cofactor
    expansion along the first row above that; fine at desk scale."""
    m = len(rows)
    if m == 1:
        return rows[0][0]
    if m == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    acc = LP_ZERO
    for j in range(m):
        if rows[0][j].is_zero():
            continue
        term = rows[0][j] * _det([row[:j] + row[j + 1:] for row in rows[1:]])
        acc = acc + term if j % 2 == 0 else acc - term
    return acc


def determinant(g: LaurentMatrix) -> LaurentPoly:
    return _det(g.entries)


Monomial = tuple[int, Gaussian]  # (e, c) standing for c * t^e


def _unit_monomial(g: LaurentMatrix) -> Monomial:
    """Exponent and coefficient of the determinant, which must be a monomial."""
    mono = determinant(g).monomial()
    if mono is None:
        raise ValidationError("loop is not invertible: determinant is not a unit monomial")
    return mono


def mat_inverse(g: LaurentMatrix, det: Monomial | None = None) -> LaurentMatrix:
    """Adjugate over the unit determinant; errors on non-unit determinants.

    ``det`` is the unit monomial of g when the caller already knows it;
    otherwise it is computed and checked here.  The adjugate's entries are
    the (n-1)x(n-1) minors, in closed form for n <= 3.
    """
    e, c = _unit_monomial(g) if det is None else det
    inv_c = G_ONE / c
    n = g.n
    if n == 1:
        return lm_from_rows(g.form, [[LaurentPoly.t_power(-e, inv_c)]])
    rows = g.entries
    neg_inv_c = -inv_c
    adjugate = []
    for i in range(n):
        row = []
        for j in range(n):
            # cofactor (j, i): delete row j and column i
            minor = _det([r[:i] + r[i + 1:] for k, r in enumerate(rows) if k != j])
            row.append(minor.shift(-e).scale(inv_c if (i + j) % 2 == 0 else neg_inv_c))
        adjugate.append(row)
    return lm_from_rows(g.form, adjugate)


def min_valuation(g: LaurentMatrix) -> int:
    vals = [p.valuation() for row in g.entries for p in row if not p.is_zero()]
    if not vals:
        raise ValidationError("zero matrix has no valuation")
    return min(vals)


def max_degree(g: LaurentMatrix) -> int:
    degs = [p.degree() for row in g.entries for p in row if not p.is_zero()]
    if not degs:
        raise ValidationError("zero matrix has no degree")
    return max(degs)


def loops_equal(a: LaurentMatrix, b: LaurentMatrix) -> bool:
    return a.n == b.n and a.entries == b.entries


# ---------------------------------------------------------------------------
# forms and their involutions


def _turn(g: LaurentMatrix) -> LaurentMatrix:
    """J g J for the anti-diagonal J: g with its rows and columns reversed."""
    return lm_from_rows(g.form, [row[::-1] for row in reversed(g.entries)])


def _bar(p: LaurentPoly) -> LaurentPoly:
    """Substitute t -> 1/t and conjugate the coefficients, in one pass."""
    return _raw({-e: (a, -b) for e, (a, b) in p._c.items()}, p._d)


class FormAction(Record):
    """The involution package of one supported matrix form.

    Split forms: the real conjugation is coefficient conjugation, the
    symmetric involution is transpose-inverse (symmetric subgroup is the
    orthogonal group).  Unitary forms u(p,q): the real conjugation is the
    J-twisted conjugate-transpose-inverse for the anti-diagonal form matrix J,
    whose diagonal torus is a stable maximally split one.
    """

    name: str
    n: int
    family: str  # "split" or "unitary"
    special: bool  # determinant pinned to 1
    signature: tuple[int, int] | None = None
    entry: str = ""  # the catalog entry this form models

    # involutions of the loop group; J X J is X turned by 180 degrees
    def conjugation(self, g: LaurentMatrix) -> LaurentMatrix:
        if self.family == "split":
            return apply_conjugation(g)
        return _turn(mat_inverse(transpose(apply_conjugation(g))))

    def symmetric_involution(self, g: LaurentMatrix) -> LaurentMatrix:
        if self.family == "split":
            return mat_inverse(transpose(g))
        return _turn(g)

    # anti-involutions; ``det`` is the unit monomial of g when already known
    def real_antiinvolution(self, g: LaurentMatrix, det: Monomial | None = None) -> LaurentMatrix:
        """Invert, reverse time, apply the real conjugation."""
        if self.family == "split":
            return lm_from_rows(g.form, [[_bar(p) for p in row] for row in mat_inverse(g, det).entries])
        # J bar(g)^T J: entry (i, j) is bar(g) at (n-1-j, n-1-i)
        return lm_from_rows(g.form, [[_bar(p) for p in col[::-1]] for col in reversed(tuple(zip(*g.entries)))])

    def symmetric_antiinvolution(self, g: LaurentMatrix, det: Monomial | None = None) -> LaurentMatrix:
        if self.family == "split":
            return transpose(g)
        return _turn(mat_inverse(g, det))

    def symmetrize(self, g: LaurentMatrix, det: Monomial | None = None) -> LaurentMatrix:
        """The loop-to-symmetric-space projection applied to g."""
        if self.family != "split":
            return mat_mul(self.symmetric_antiinvolution(g, det), g)
        # g^T g is symmetric: compute the upper triangle and mirror it
        cols, n = tuple(zip(*g.entries)), g.n
        upper = {(i, j): sum(map(mul, cols[i], cols[j]), LP_ZERO) for i in range(n) for j in range(i, n)}
        return lm_from_rows(g.form, [[upper[min(i, j), max(i, j)] for j in range(n)] for i in range(n)])

    # determinants of the derived loops, by monomial algebra from det(g) = c t^e
    def symmetrized_det(self, det: Monomial) -> Monomial:
        """Unit monomial of ``symmetrize(g)``: det(g^T g) = c^2 t^2e for split
        forms, det(J g^-1 J g) = det(J)^2 = 1 for unitary ones."""
        e, c = det
        if self.family == "split":
            return 2 * e, c * c
        return 0, G_ONE

    def real_symmetrized_det(self, det: Monomial) -> Monomial:
        """Unit monomial of ``real_antiinvolution(g) * g``.  Split forms:
        conj(tau(g^-1)) has determinant t^e / conj(c).  Unitary forms:
        J conj(tau(g))^T J has determinant conj(c) t^-e."""
        e, c = det
        if self.family == "split":
            return 2 * e, c / c.conjugate()
        return 0, c * c.conjugate()

    # lattice shadow
    def lattice_involution(self) -> IntMatrix:
        if self.family == "split":
            return tuple(tuple(1 if i == j else 0 for j in range(self.n)) for i in range(self.n))
        return tuple(tuple(-1 if i + j == self.n - 1 else 0 for j in range(self.n)) for i in range(self.n))

    def lattice_fixed(self, lam: Coweight) -> bool:
        theta = self.lattice_involution()
        return tuple(sum(r * x for r, x in zip(row, lam)) for row in theta) == tuple(lam)

    # membership checks for the subgroup generators
    def is_real_loop(self, g: LaurentMatrix) -> bool:
        return loops_equal(mat_mul(self.real_antiinvolution(g), g), identity_loop(self.name, self.n))

    def is_symmetric_subgroup_loop(self, g: LaurentMatrix) -> bool:
        return loops_equal(self.symmetric_involution(g), g)

    def validate(self, g: LaurentMatrix) -> Monomial:
        """Check the size and the unit determinant of g; returns det(g) as (e, c)."""
        if g.n != self.n:
            raise ValidationError(f"form {self.name} expects size {self.n}, got {g.n}")
        e, c = _unit_monomial(g)
        if self.special and (e != 0 or c != G_ONE):
            raise ValidationError(f"form {self.name} requires determinant 1")
        return e, c


@lru_cache(maxsize=None)
def _form_table() -> dict[str, FormAction]:
    forms = [
        FormAction(name="gl1_split", n=1, family="split", special=False, entry="gl1_split"),
        FormAction(name="gl2_split", n=2, family="split", special=False, entry="gl2_split"),
        FormAction(name="gl3_split", n=3, family="split", special=False, entry="gl3_split"),
        FormAction(name="sl2_split", n=2, family="split", special=True, entry="sl2_split"),
        FormAction(name="sl3_split", n=3, family="split", special=True, entry="sl3_split"),
        FormAction(name="u11", n=2, family="unitary", special=False, signature=(1, 1), entry="su11"),
        FormAction(name="u21", n=3, family="unitary", special=False, signature=(2, 1), entry="su21"),
    ]
    return {f.name: f for f in forms}


def form_names() -> tuple[str, ...]:
    return tuple(_form_table())


def form_action(name: str) -> FormAction:
    table = _form_table()
    if name not in table:
        raise ValidationError(f"unsupported form {name!r}; available: {', '.join(table)}")
    return table[name]


# ---------------------------------------------------------------------------
# stratum invariant: determinantal divisors


def stratum_invariant(g: LaurentMatrix) -> Coweight:
    """Dominant coweight of the power-series double coset g in G(O) t^lam G(O).

    The k-th determinantal divisor d_k is the least t-valuation of a k x k
    minor of g, with d_0 = 0 and d_n the determinant's exponent; the
    elementary divisors at t = 0 are t^(d_k - d_(k-1)), and lam lists their
    exponents decreasingly.
    """
    return _stratum(g, _unit_monomial(g))


def _stratum(g: LaurentMatrix, det: Monomial) -> Coweight:
    n = g.n
    divisors = [0]
    for k in range(1, n):
        divisors.append(min(
            minor.valuation()
            for rows in combinations(g.entries, k)
            for cols in combinations(range(n), k)
            if not (minor := _det([[row[j] for j in cols] for row in rows])).is_zero()
        ))
    divisors.append(det[0])
    steps = [b - a for a, b in zip(divisors, divisors[1:])]
    # the elementary divisors divide one another, so the steps cannot decrease
    if steps != sorted(steps):
        raise TheoremViolationError(
            f"determinantal divisors {tuple(divisors)} do not form a divisibility chain"
        )
    return tuple(reversed(steps))


# ---------------------------------------------------------------------------
# splitting type: column reduction


def splitting_type(g: LaurentMatrix) -> Coweight:
    """Dominant coweight of the two-sided polynomial double coset
    g in G[1/t] t^lam G[t]: the splitting type of the glued bundle.

    Column reduction (Wolovich, Linear Multivariable Systems, 1974): t^N g is
    a polynomial matrix, and unimodular column operations over Q(i)[t] make
    its matrix of leading column coefficients nonsingular.  The column
    degrees minus N are then the partial indices (Gohberg, Kaashoek and
    Spitkovsky, 2003), i.e. the splitting type.  Each step lowers the sum of
    the column degrees, which ends at det exponent + n*N, so the loop is
    bounded; a run past that bound raises TheoremViolationError.
    """
    return _splitting(g, _unit_monomial(g))


Pair = tuple[int, int]  # (a, b) standing for the Gaussian integer a + b*i


def _kernel_vector(m: list[list[Pair]]) -> list[Pair] | None:
    """A nonzero v with m v = 0 for a square matrix m of Gaussian integers, or
    None when m is nonsingular.

    Fraction-free Gauss-Jordan elimination (Bareiss, Math. Comp. 22, 1968) up
    to the first free column: row_i <- p*row_i - f*pivot.  The pivot rows
    before that column read d_i v_i + r_i v_col = 0, solved with v_col the
    lcm of the norms |d_i|^2; v is returned divided by the gcd of its parts.
    """
    n = len(m)
    rows = list(m)
    for col in range(n):
        p = next((i for i in range(col, n) if rows[i][col] != (0, 0)), None)
        if p is None:
            common = lcm(*(a * a + b * b for a, b in (rows[i][i] for i in range(col))))
            v = []
            for (da, db), (ra, rb) in ((rows[i][i], rows[i][col]) for i in range(col)):
                k = common // (da * da + db * db)
                v.append((-k * (ra * da + rb * db), k * (ra * db - rb * da)))  # -k*r*conj(d)
            v += [(common, 0)] + [(0, 0)] * (n - col - 1)
            g = gcd(*(x for pair in v for x in pair))
            return [(a // g, b // g) for a, b in v]
        rows[col], rows[p] = rows[p], rows[col]
        pivot = rows[col]
        pa, pb = pivot[col]
        for i in range(n):
            fa, fb = rows[i][col]
            if i != col and (fa or fb):
                rows[i] = [(pa * xa - pb * xb - fa * ya + fb * yb, pa * xb + pb * xa - fa * yb - fb * ya)
                           for (xa, xb), (ya, yb) in zip(rows[i], pivot)]
    return None


def _splitting(g: LaurentMatrix, det: Monomial) -> Coweight:
    # t^N g has g's column degrees plus N, so the reduction runs on g.  Scaling a
    # column by the lcm of its denominators is unimodular, so it runs on Z[i]
    # numerators (Beelen, van den Hurk and Praagman, Syst. Control Lett. 11, 1988).
    n = g.n
    cols = []
    for col in zip(*g.entries):
        s = lcm(*(p._d for p in col))
        cols.append([p._c if p._d == s else {e: (a * (s // p._d), b * (s // p._d)) for e, (a, b) in p._c.items()}
                     for p in col])
    degs = [max(max(p) for p in col if p) for col in cols]
    # each step lowers sum(degs), which ends at the determinant's exponent
    steps_left = sum(degs) - det[0]
    while (v := _kernel_vector([[col[i].get(d, (0, 0)) for col, d in zip(cols, degs)] for i in range(n)])) is not None:
        if steps_left <= 0:
            raise TheoremViolationError(
                f"column reduction ran past its step bound at column degrees {tuple(degs)}"
            )
        steps_left -= 1
        # the sum of v_j * t^(top - d_j) * col_j over the support of v cancels the top column's lead
        support = [j for j in range(n) if v[j] != (0, 0)]
        top = max(support, key=degs.__getitem__)
        new = []
        for i in range(n):
            acc: dict[int, Pair] = {}
            for j in support:
                (p, q), k = v[j], degs[top] - degs[j]
                for e, (a, b) in cols[j][i].items():
                    x, y, old = a * p - b * q, a * q + b * p, acc.get(e + k)
                    acc[e + k] = (x, y) if old is None else (old[0] + x, old[1] + y)
            new.append({e: pair for e, pair in acc.items() if pair != (0, 0)})
        cols[top] = new
        degs[top] = max(max(p) for p in new if p)
    lam = tuple(sorted(degs, reverse=True))
    if sum(lam) != det[0]:
        raise TheoremViolationError(
            f"partial indices {lam} do not sum to the determinant exponent {det[0]}"
        )
    return lam


# ---------------------------------------------------------------------------
# orbit invariants


def k_orbit_invariant(g: LaurentMatrix) -> Coweight:
    """Stratum invariant of the symmetrized loop; guaranteed to be fixed by the
    form's lattice involution, and checked."""
    form = form_action(g.form)
    det = form.validate(g)
    lam = _stratum(form.symmetrize(g, det), form.symmetrized_det(det))
    if not form.lattice_fixed(lam):
        raise TheoremViolationError(
            f"k-orbit invariant {lam} is not fixed by the lattice involution of {form.name}; "
            "the unique-real-representative law fails, so the form/matrix pair is inconsistent"
        )
    return lam


def r_orbit_invariant(g: LaurentMatrix) -> Coweight:
    """Splitting type of the real-symmetrized loop; guaranteed to be a dominant
    real coweight, and checked."""
    form = form_action(g.form)
    det = form.validate(g)
    lam = _splitting(mat_mul(form.real_antiinvolution(g, det), g), form.real_symmetrized_det(det))
    if not form.lattice_fixed(lam):
        raise TheoremViolationError(
            f"r-orbit invariant {lam} is not fixed by the lattice involution of {form.name}; "
            "the real double-coset law fails, so the form/matrix pair is inconsistent"
        )
    return lam


# ---------------------------------------------------------------------------
# geodesic representatives


def _split_membership_error(form: FormAction, lam) -> str | None:
    if len(lam) != form.n:
        return f"coweight must have length {form.n}"
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        return "coweight must be dominant (non-increasing entries)"
    if form.special and sum(lam) != 0:
        return "special form requires coordinate sum zero"
    if sum(1 for a in lam if a % 2) % 2:
        return "parity obstruction: an odd number of odd entries has no based loop"
    return None


def geodesic_representative(form: FormAction | str, lam: Coweight) -> LaurentMatrix:
    """An exactly-verified based loop whose real symmetrization is t^lam.

    Even entries contribute half-power diagonal monomials; odd entries are
    paired and each pair contributes a half-angle rotation times a half-power
    torus block, all with integer exponents.  The defining identity is checked
    by exact multiplication before returning.
    """
    if isinstance(form, str):
        form = form_action(form)
    if form.family != "split":
        raise ValidationError(
            f"geodesic construction is only provided for the split forms, not {form.name}"
        )
    reason = _split_membership_error(form, lam)
    if reason is not None:
        raise ValidationError(f"{tuple(lam)} is not an orbit index for {form.name}: {reason}")

    n = form.n
    rows = [[LP_ZERO for _ in range(n)] for _ in range(n)]
    odd_positions = [i for i, a in enumerate(lam) if a % 2]
    for i, a in enumerate(lam):
        if a % 2 == 0:
            rows[i][i] = LaurentPoly.t_power(a // 2)
    for i, j in zip(odd_positions[::2], odd_positions[1::2]):
        a, b = lam[i], lam[j]
        cos_a = LaurentPoly({(a + 1) // 2: HALF, (a - 1) // 2: HALF})
        sin_b = LaurentPoly({(b + 1) // 2: HALF_OVER_I, (b - 1) // 2: -HALF_OVER_I})
        msin_a = LaurentPoly({(a + 1) // 2: -HALF_OVER_I, (a - 1) // 2: HALF_OVER_I})
        cos_b = LaurentPoly({(b + 1) // 2: HALF, (b - 1) // 2: HALF})
        rows[i][i] = cos_a
        rows[i][j] = sin_b
        rows[j][i] = msin_a
        rows[j][j] = cos_b
    loop = lm_from_rows(form.name, rows)
    target = diagonal_loop(form.name, lam)
    if not loops_equal(mat_mul(form.real_antiinvolution(loop), loop), target):
        raise TheoremViolationError(
            f"geodesic construction for {tuple(lam)} failed its exact multiplication check"
        )
    return loop


# ---------------------------------------------------------------------------
# seeded random loops


def _exp_nilpotent(form_name: str, n: int, entries) -> LaurentMatrix:
    """exp of a strictly triangular Laurent matrix, exact since X^n = 0."""
    x = lm_from_rows(form_name, entries)
    total = power = identity_loop(form_name, n)
    fact = 1
    for k in range(1, n):
        power, fact = mat_mul(power, x), fact * k
        c = Gaussian(Fraction(1, fact))
        total = lm_from_rows(
            form_name, [[a + b.scale(c) for a, b in zip(r, s)] for r, s in zip(total.entries, power.entries)]
        )
    return total


def _zero_rows(n):
    return [[LP_ZERO for _ in range(n)] for _ in range(n)]


def _constant_diagonal(form_name: str, values) -> LaurentMatrix:
    rows = _zero_rows(len(values))
    for i, x in enumerate(values):
        rows[i][i] = LaurentPoly.constant(x)
    return lm_from_rows(form_name, rows)


def _strict_positions(n, rng, upper=True):
    pairs = [(i, j) for i in range(n) for j in range(n) if (j > i if upper else j < i)]
    return rng.choice(pairs)


def random_real_loop(form: FormAction | str, seed: int) -> LaurentMatrix:
    """Deterministic product of generators of the real polynomial loop group."""
    if isinstance(form, str):
        form = form_action(form)
    rng = random.Random(f"{form.name}:real:{seed}")
    n = form.n
    g = identity_loop(form.name, n)
    for _ in range(rng.randint(0, 3 if n == 2 else 2)):
        kind = rng.random()
        if form.family == "split":
            if kind < 0.4 and n > 1:
                # exp(N * (t^k + t^-k)) with N strictly triangular real
                i, j = _strict_positions(n, rng, upper=rng.random() < 0.5)
                c = Gaussian(rng.choice([-1, 1, 2]))
                k = rng.choice([0, 1])
                rows = _zero_rows(n)
                rows[i][j] = LaurentPoly({k: c, -k: c} if k else {0: c})
                g = mat_mul(g, _exp_nilpotent(form.name, n, rows))
            elif kind < 0.8 and n > 1 and not form.special:
                # constant real elementary matrix
                i, j = _strict_positions(n, rng, upper=rng.random() < 0.5)
                rows = [[LP_ONE if a == b else LP_ZERO for b in range(n)] for a in range(n)]
                rows[i][j] = LaurentPoly.constant(rng.choice([-2, -1, 1, 2]))
                g = mat_mul(g, lm_from_rows(form.name, rows))
            else:
                signs = [rng.choice([1, -1]) for _ in range(n)]
                if form.special and len([s for s in signs if s < 0]) % 2:
                    signs[0] = -signs[0]
                g = mat_mul(g, _constant_diagonal(form.name, signs))
        else:
            if kind < 0.6 and n > 1:
                # exp(N t^k - J conj(N)^T J t^-k), strictly upper hence nilpotent
                i, j = _strict_positions(n, rng, upper=True)
                c = Gaussian(rng.choice([-1, 0, 1]), rng.choice([-1, 0, 1]))
                if not c:
                    c = G_ONE
                k = rng.choice([0, 1])
                rows = _zero_rows(n)
                rows[i][j] = LaurentPoly.t_power(k, c)
                ri, rj = n - 1 - j, n - 1 - i  # J-twisted transpose stays strictly upper
                mirrored = LaurentPoly.t_power(-k, -c.conjugate())
                rows[ri][rj] = rows[ri][rj] + mirrored
                g = mat_mul(g, _exp_nilpotent(form.name, n, rows))
            elif kind < 0.8:
                g = lm_from_rows(form.name, [row[::-1] for row in g.entries])  # g J
            else:
                units = [G_I, -G_I, G_ONE, -G_ONE]
                d = [rng.choice(units) for _ in range(n)]
                for i in range(n):  # anti-diagonal pairing: conj(d_i) d_{n-1-i} = 1
                    d[n - 1 - i] = G_ONE / d[i].conjugate()
                g = mat_mul(g, _constant_diagonal(form.name, d))
    if not form.is_real_loop(g):
        raise TheoremViolationError("generated loop failed its real symmetry postcondition")
    return g


def random_k_loop(form: FormAction | str, seed: int) -> LaurentMatrix:
    """Deterministic product of generators of the symmetric-subgroup loop group."""
    if isinstance(form, str):
        form = form_action(form)
    rng = random.Random(f"{form.name}:k:{seed}")
    n = form.n
    g = identity_loop(form.name, n)
    for _ in range(rng.randint(0, 3 if n == 2 else 2)):
        kind = rng.random()
        if form.family == "split":
            if n == 1:
                g = mat_mul(g, _constant_diagonal(form.name, [rng.choice([1, -1])]))
                continue
            i, j = _strict_positions(n, rng, upper=True)
            if kind < 0.5:  # cos/sin pair (t + 1/t)/2 and (t - 1/t)/(2i), orthogonal and based
                c, s = LaurentPoly({1: HALF, -1: HALF}), LaurentPoly({1: HALF_OVER_I, -1: -HALF_OVER_I})
            else:
                c = LaurentPoly.constant(Fraction(3, 5))
                s = LaurentPoly.constant(Fraction(4, 5))
            rows = [[LP_ONE if a == b else LP_ZERO for b in range(n)] for a in range(n)]
            rows[i][i], rows[i][j] = c, s
            rows[j][i], rows[j][j] = -s, c
            g = mat_mul(g, lm_from_rows(form.name, rows))
            if kind > 0.85 and not form.special:
                g = mat_mul(g, _constant_diagonal(form.name, [-1 if a == i else 1 for a in range(n)]))
        else:
            # loops commuting with the anti-diagonal J: a*I + b*J patterns
            e1, e2 = rng.choice([0, 1]), rng.choice([0, -1, 1])
            u = LaurentPoly.t_power(e1, rng.choice([G_ONE, -G_ONE]))
            v = LaurentPoly.t_power(e2, rng.choice([G_ONE, G_I]))
            a = (u + v).scale(HALF)
            b = (v - u).scale(HALF)
            rows = _zero_rows(n)
            for i in range(n):
                rows[i][i] = a
                rows[i][n - 1 - i] = rows[i][n - 1 - i] + b
            g = mat_mul(g, lm_from_rows(form.name, rows))
    if not form.is_symmetric_subgroup_loop(g):
        raise TheoremViolationError("generated loop failed its symmetric-subgroup postcondition")
    return g


def random_polynomial_loop(form: FormAction | str, seed: int, negative: bool = False) -> LaurentMatrix:
    """Deterministic polynomial loop: unipotents with polynomial entries times
    constant invertibles; with ``negative`` the loop lives in t^-1 instead."""
    if isinstance(form, str):
        form = form_action(form)
    rng = random.Random(f"{form.name}:poly:{seed}")
    n = form.n
    g = identity_loop(form.name, n)
    for _ in range(rng.randint(0, 3 if n == 2 else 2)):
        kind = rng.random()
        if kind < 0.7 and n > 1:
            i, j = _strict_positions(n, rng, upper=rng.random() < 0.5)
            rows = [[LP_ONE if a == b else LP_ZERO for b in range(n)] for a in range(n)]
            coeff = Gaussian(rng.choice([-1, 1]), rng.choice([-1, 0, 1]))
            rows[i][j] = LaurentPoly.t_power(rng.choice([0, 1]), coeff)
            g = mat_mul(g, lm_from_rows(form.name, rows))
        else:
            units = [G_ONE, -G_ONE, G_I] if not form.special else [G_ONE]
            g = mat_mul(g, _constant_diagonal(form.name, [rng.choice(units) for _ in range(n)]))
    if negative:
        g = apply_tau(g)
        if max_degree(g) > 0:
            raise TheoremViolationError("negative polynomial loop has positive powers")
    elif min_valuation(g) < 0:
        raise TheoremViolationError("polynomial loop has negative powers")
    return g
