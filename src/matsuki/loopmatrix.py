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

Each form reads theta and the orbit-index test from its ``realform`` catalog
entry, mapping diagonal-torus coordinates to the entry's (``to_entry``).

All arithmetic is exact and runs on Python integers: a Gaussian rational is
a normalized integer triple (a, b, d) meaning (a + b*i)/d, and a Laurent
polynomial packs its Gaussian-integer numerators over one common denominator;
nothing is ever floating point.  The unitary forms conjugate by the
anti-diagonal J, and J X J is X turned by 180 degrees, never a product.

All arithmetic on Gaussian-integer numerator dicts runs on one integer
kernel: ``_int_rows`` clears each row or column of its denominators,
``_raw_dot`` is every product, sum and scaling (a sum or a scaling is a
product with constants), ``_raw_det`` and ``_adjugate`` build determinants
and cofactors with it in closed form, since every loop is at most 3 x 3, as
``lm_from_rows`` enforces, and only an entry that a public function returns
becomes a ``LaurentPoly``.  A constant invertible diagonal lies in
G(O) and in G[1/t], so scaling rows or columns by constants moves neither the
valuation of a minor nor a column degree of the reduction.  Each invariant
therefore clears its loop once and reads both the check that det g = c*t^e is
a unit monomial (off the adjugate's first column where one is built) and the
minors or the reduction off those lines, for g and for its symmetrized loops,
whose products a(g)*g are built by halves where a(M) = M is an index symmetry.

Two standard modules are imported only by the code that uses them, since
every command and set-up pays for a module-level import in a fresh process:
``fractions`` (which loads ``decimal``, ``numbers`` and ``re``) by ``_fraction``
for the Fraction-facing API of ``Gaussian``, and ``random`` by ``_rng`` for the
seeded generators.  The arithmetic, the four invariants and the module's own
constants build no Fraction.
"""

from __future__ import annotations

from itertools import accumulate, combinations
from math import gcd, lcm, prod
from operator import index

from . import fundgroup  # read at call time: only geodesic construction runs it
from .errors import TheoremViolationError, ValidationError
from .realform import catalog
from .record import Record
from .rootdata import Coweight

# ---------------------------------------------------------------------------
# Gaussian rationals


def _fraction():
    """The ``Fraction`` class, for parts given or read as Fractions."""
    from fractions import Fraction

    return Fraction


class Gaussian:
    """An element of Q(i), stored as normalized integers ``(a, b, d)`` that
    mean (a + b*i)/d, with d > 0 and gcd(a, b, d) = 1.  It is built from
    parts ``re`` and ``im`` that are ints or Fractions; anything else, a float
    included, raises ``ValidationError``.

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
            Fraction = _fraction()
            if not (isinstance(re, (int, Fraction)) and isinstance(im, (int, Fraction))):
                raise ValidationError(f"Gaussian parts must be int or Fraction, got {re!r} and {im!r}")
            re, im = Fraction(re), Fraction(im)
            q, s = re.denominator, im.denominator
            d = lcm(q, s)  # both parts are in lowest terms, so gcd(a, b, d) = 1
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
        return _fraction()(self.a, self.d)

    @property
    def im(self) -> Fraction:
        return _fraction()(self.b, self.d)

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
        return _norm(self.a * e + other.a * d, self.b * e + other.b * d, d * e)

    def __sub__(self, other):
        d, e = self.d, other.d
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


G_ONE = Gaussian(1)
G_I = Gaussian(0, 1)
HALF = _make(1, 0, 2)
HALF_OVER_I = _make(0, -1, 2)  # 1/(2i)


# ---------------------------------------------------------------------------
# Laurent polynomials


class LaurentPoly:
    """A Laurent polynomial over Q(i): ``_c`` maps each exponent to a nonzero
    Gaussian-integer numerator pair ``(a, b)`` meaning (a + b*i)/d, over the
    least common denominator ``_d`` (d > 0, coprime to the numerators, 1 for
    zero).  The form is unique, so equality compares the fields.  Arithmetic
    runs on the ints and normalizes once per result; ``items`` builds
    ``Gaussian`` values on demand."""

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

    # arithmetic
    def _combine(self, other, sign: int) -> "LaurentPoly":
        """self + sign * other over the least common denominator."""
        d, f = self._d, other._d
        g = gcd(d, f)
        return _packed(_raw_dot([(self._c, {0: (f // g, 0)}), (other._c, {0: (sign * d // g, 0)})]), d // g * f)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return _raw({e: (-a, -b) for e, (a, b) in self._c.items()}, self._d)

    def __mul__(self, other):
        if not self._c or not other._c:
            return LP_ZERO
        return _packed(_raw_dot(((self._c, other._c),)), self._d * other._d)

    def scale(self, factor: Gaussian) -> "LaurentPoly":
        return _packed(_raw_dot([(self._c, {0: (factor.a, factor.b)})]), self._d * factor.d)

    def tau(self) -> "LaurentPoly":
        """Substitute t -> 1/t."""
        return _raw({-e: pair for e, pair in self._c.items()}, self._d)

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


def lm_from_rows(form: str, rows) -> LaurentMatrix:
    rows = tuple(tuple(r) for r in rows)
    n = len(rows)
    if n == 0 or any(len(r) != n for r in rows):
        raise ValidationError("loop matrix must be square and non-empty")
    if n > 3:
        raise ValidationError(f"loop matrix must be at most 3 x 3, as every form is; got {n} x {n}")
    return LaurentMatrix(n=n, entries=rows, form=form)


def _rows(n: int, diagonal: LaurentPoly, entries: dict[tuple[int, int], LaurentPoly]) -> list[list[LaurentPoly]]:
    """The n x n rows with ``diagonal`` on the diagonal and zeros off it, then the (i, j) entries of ``entries``."""
    rows = [[diagonal if i == j else LP_ZERO for j in range(n)] for i in range(n)]
    for (i, j), p in entries.items():
        rows[i][j] = p
    return rows


def identity_loop(form: str, n: int) -> LaurentMatrix:
    return lm_from_rows(form, _rows(n, LP_ONE, {}))


def diagonal_loop(form: str, exponents) -> LaurentMatrix:
    diagonal = {(i, i): LaurentPoly.t_power(e) for i, e in enumerate(exponents)}
    return lm_from_rows(form, _rows(len(diagonal), LP_ZERO, diagonal))


def transpose(g: LaurentMatrix) -> LaurentMatrix:
    return lm_from_rows(g.form, tuple(zip(*g.entries)))


def apply_tau(g: LaurentMatrix) -> LaurentMatrix:
    """Entrywise substitution t -> 1/t."""
    return lm_from_rows(g.form, [[p.tau() for p in row] for row in g.entries])


# ---------------------------------------------------------------------------
# the integer kernel: numerator dicts {e: (a, b)} of Gaussian integers

Pair = tuple[int, int]  # (a, b) standing for the Gaussian integer a + b*i
Raw = dict[int, Pair]  # the numerators of a Laurent polynomial, no zero pairs; never mutated


def _int_rows(rows) -> tuple[list[list[Raw]], list[int]]:
    """Each row's numerators over the lcm of its denominators, and those lcms."""
    out, scales = [], []
    for row in rows:
        s = lcm(*[p._d for p in row])
        out.append([p._c if p._d == s else {e: (a * (s // p._d), b * (s // p._d)) for e, (a, b) in p._c.items()}
                    for p in row])
        scales.append(s)
    return out, scales


def _raw_dot(plus, minus=()) -> Raw:
    """The sum of p*q over the pairs (p, q) of ``plus`` minus that over ``minus``,
    fused into one dict, p's terms outer: zero pairs are dropped, nothing is normalized."""
    out: Raw = {}
    get = out.get
    for p, q in plus:
        for e1, (a1, b1) in p.items():
            for e2, (a2, b2) in q.items():
                if (s := get(e := e1 + e2)) is None:
                    out[e] = (a1 * a2 - b1 * b2, a1 * b2 + b1 * a2)
                else:
                    out[e] = (s[0] + a1 * a2 - b1 * b2, s[1] + a1 * b2 + b1 * a2)
    for p, q in minus:
        for e1, (a1, b1) in p.items():
            for e2, (a2, b2) in q.items():
                if (s := get(e := e1 + e2)) is None:
                    out[e] = (b1 * b2 - a1 * a2, -a1 * b2 - b1 * a2)
                else:
                    out[e] = (s[0] - a1 * a2 + b1 * b2, s[1] - a1 * b2 - b1 * a2)
    # a first product of two nonzero Gaussian integers is nonzero, so only a sum can cancel
    return {e: s for e, s in out.items() if s[0] or s[1]} if (0, 0) in out.values() else out


def _raw_det(rows) -> Raw:
    """Determinant of a square list of numerator rows, at most 3x3 as every loop is
    (``lm_from_rows``), in closed form: at 3x3 the first row against the cyclic 2x2
    minors of the other two, a zero entry's minor skipped."""
    if len(rows) == 1:
        return rows[0][0]
    if len(rows) == 2:
        (a, b), (c, d) = rows
        return _raw_dot([(a, d)], [(b, c)])
    r, s, u = rows  # j - 2 and j - 1 are j + 1 and j + 2 mod 3
    return _raw_dot([(p, _raw_dot([(s[j - 2], u[j - 1])], [(s[j - 1], u[j - 2])])) for j, p in enumerate(r) if p])


def _adjugate(m: list[list[Raw]]) -> tuple[list[list[Raw]], Raw]:
    """The adjugate of m, at most 3x3 as every loop is, and det m = sum_j m_0j adj_j0 read off
    it.  Entry (i, j) is det of m without row j and column i, signed (-1)^(i+j), in closed form:
    at n = 2 swap and negate, at n = 3 m[j+1][i+1] m[j+2][i+2] - m[j+1][i+2] m[j+2][i+1],
    indices mod 3, unsigned: a cyclic shift of three rows is even."""
    n = len(m)
    if n == 1:
        return [[{0: (1, 0)}]], m[0][0]
    if n == 2:
        (a, b), (c, d) = m
        adj = [[d, {x: (-u, -v) for x, (u, v) in b.items()}], [{x: (-u, -v) for x, (u, v) in c.items()}, a]]
    else:
        adj = [[_raw_dot([(m[j - 2][i - 2], m[j - 1][i - 1])], [(m[j - 2][i - 1], m[j - 1][i - 2])])
                for j in range(3)] for i in range(3)]
    return adj, _raw_dot(zip(m[0], [row[0] for row in adj]))


def determinant(g: LaurentMatrix) -> LaurentPoly:
    rows, scales = _int_rows(g.entries)
    return _packed(_raw_det(rows), prod(scales))


Monomial = tuple[int, Gaussian]  # (e, c) standing for c * t^e


def _unit_monomial(det: Raw, scales: list[int]) -> Monomial:
    """Exponent and coefficient of the determinant of a loop, from that of its
    cleared rows or columns and their lcms; it must be a monomial."""
    if len(det) != 1:
        raise ValidationError("loop is not invertible: determinant is not a unit monomial")
    (e, (a, b)), = det.items()
    return e, _norm(a, b, prod(scales))


def mat_inverse(g: LaurentMatrix) -> LaurentMatrix:
    """Adjugate over the unit determinant c t^e; errors on non-unit determinants.
    For g's column lcms s, adj(g diag(s)) is diag(prod(s)/s) adj(g), so row i
    is divided by prod(s)/s_i."""
    cols, scales = _int_rows(zip(*g.entries))
    adj, det = _adjugate([*zip(*cols)])
    e, c = _unit_monomial(det, scales)
    # t^-e/c is c.d t^-e times the conjugate of c.a + c.b*i over its norm
    inv, den = {-e: (c.d * c.a, -c.d * c.b)}, prod(scales) * (c.a * c.a + c.b * c.b)
    return lm_from_rows(g.form, [[_packed(_raw_dot([(r, inv)]), den // s) for r in row]
                                 for row, s in zip(adj, scales)])


def mat_mul(a: LaurentMatrix, b: LaurentMatrix) -> LaurentMatrix:
    if a.n != b.n:
        raise ValidationError("size mismatch in matrix product")
    rows, r = _int_rows(a.entries)
    cols, c = _int_rows(zip(*b.entries))
    return lm_from_rows(
        a.form, [[_packed(_raw_dot(zip(row, col)), s * t) for col, t in zip(cols, c)] for row, s in zip(rows, r)]
    )


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
    entry: str = ""  # the catalog entry this form models

    # involutions of the loop group; J X J is X turned by 180 degrees
    def symmetric_involution(self, g: LaurentMatrix) -> LaurentMatrix:
        if self.family == "split":
            return mat_inverse(transpose(g))
        return _turn(g)

    # anti-involutions
    def real_antiinvolution(self, g: LaurentMatrix) -> LaurentMatrix:
        """Invert (split) or take J g^T J (unitary), then reverse time and
        conjugate the coefficients in one pass."""
        h = mat_inverse(g) if self.family == "split" else _turn(transpose(g))
        return lm_from_rows(g.form, [[_raw({-e: (a, -b) for e, (a, b) in p._c.items()}, p._d) for p in row]
                                     for row in h.entries])

    def symmetric_antiinvolution(self, g: LaurentMatrix) -> LaurentMatrix:
        if self.family == "split":
            return transpose(g)
        return _turn(mat_inverse(g))

    def _anti_product(self, g: LaurentMatrix, real: bool) -> tuple[list[list[Raw]], int]:
        """The numerator columns of a(g) * g up to constant factors of rows and
        columns, and the exponent of its determinant, where a(g) is
        g^-1 = adj(g) t^-e / c or g^T, barred if ``real``, turned if unitary: the
        real or symmetric anti-involution.  g is checked as ``validate`` does,
        on the columns cleared here."""
        cols, scales = _int_rows(zip(*g.entries))
        n = len(cols)
        inverse = (self.family == "split") == real  # a(g) is adj(g) t^-e / c on split R and unitary K, else g^T
        left, det = _adjugate([*zip(*cols)]) if inverse else (cols, _raw_det(cols))
        e = self._checked_det(det, scales)[0]
        shift = e if inverse else 0
        if real:  # t^-shift, then bar: x goes to shift - x
            left = [[{shift - x: (a, -b) for x, (a, b) in p.items()} for p in row] for row in left]
        elif shift:
            left = [[{x - shift: v for x, v in p.items()} for p in row] for row in left]
        if self.family != "split":
            left = [row[::-1] for row in reversed(left)]
        # a(M) = M gives split K's M_rc = M_cr and unitary R's M_rc = bar-tau of M_(n-1-c)(n-1-r), so
        # there n(n+1)/2 entries are products and the rest copies; split R and unitary K have no such symmetry
        out = []
        for c, col in enumerate(cols):
            out.append([_raw_dot(zip(row, col)) if inverse or (r + c < n if real else r >= c)
                        else {-x: (a, -b) for x, (a, b) in out[n - 1 - r][n - 1 - c].items()} if real else out[r][c]
                        for r, row in enumerate(left)])
        return out, self.symmetrized_exponent(e)

    def symmetrized_exponent(self, e: int) -> int:
        """The t-exponent of det ``symmetric_antiinvolution(g) * g`` and of
        det ``real_antiinvolution(g) * g`` when det g = c t^e: 2e for split forms,
        whose anti-involutions keep the exponent e, and 0 for unitary ones,
        whose anti-involutions turn it into -e."""
        return 2 * e if self.family == "split" else 0

    # the lattice side is the catalog entry's
    def to_entry(self, lam: Coweight) -> Coweight | None:
        """lam, of length n, in the entry's coordinates: itself on a rank-n entry; on a rank n-1 one its partial
        sums (simple-coroot coordinates) if it sums to zero, else None.  Another length raises ``ValidationError``."""
        if len(lam) != self.n:
            raise ValidationError(f"coweight must have length {self.n}, got {tuple(lam)}")
        return self._coordinates(lam, catalog(self.entry))

    def _coordinates(self, lam: Coweight, entry) -> Coweight | None:
        if entry.datum.rank == self.n:
            return tuple(lam)
        *sums, total = accumulate(lam)
        return None if total else tuple(sums)

    def lattice_fixed(self, lam: Coweight) -> bool:
        mu = self._coordinates(lam, entry := catalog(self.entry))
        return mu is not None and entry.spec.is_real(mu)

    # membership checks for the subgroup generators
    def is_real_loop(self, g: LaurentMatrix) -> bool:
        return loops_equal(mat_mul(self.real_antiinvolution(g), g), identity_loop(self.name, self.n))

    def is_symmetric_subgroup_loop(self, g: LaurentMatrix) -> bool:
        return loops_equal(self.symmetric_involution(g), g)

    def validate(self, g: LaurentMatrix) -> Monomial:
        """Check the size and the unit determinant of g; returns det(g) as (e, c)."""
        rows, scales = _int_rows(g.entries)
        return self._checked_det(_raw_det(rows), scales)

    def _checked_det(self, det: Raw, scales: list[int]) -> Monomial:
        # the checks of ``validate`` on the determinant of a loop's cleared rows or columns and their lcms
        if len(scales) != self.n:
            raise ValidationError(f"form {self.name} expects size {self.n}, got {len(scales)}")
        e, c = _unit_monomial(det, scales)
        if self.special and (e != 0 or c != G_ONE):
            raise ValidationError(f"form {self.name} requires determinant 1")
        return e, c


_FORMS = {f.name: f for f in (
    FormAction(name="gl1_split", n=1, family="split", special=False, entry="gl1_split"),
    FormAction(name="gl2_split", n=2, family="split", special=False, entry="gl2_split"),
    FormAction(name="gl3_split", n=3, family="split", special=False, entry="gl3_split"),
    FormAction(name="sl2_split", n=2, family="split", special=True, entry="sl2_split"),
    FormAction(name="sl3_split", n=3, family="split", special=True, entry="sl3_split"),
    FormAction(name="u11", n=2, family="unitary", special=False, entry="su11"),
    FormAction(name="u21", n=3, family="unitary", special=False, entry="su21"),
)}


def form_names() -> tuple[str, ...]:
    return tuple(_FORMS)


def form_action(name: str) -> FormAction:
    if name not in _FORMS:
        raise ValidationError(f"unsupported form {name!r}; available: {', '.join(_FORMS)}")
    return _FORMS[name]


# ---------------------------------------------------------------------------
# stratum invariant: determinantal divisors


def stratum_invariant(g: LaurentMatrix) -> Coweight:
    """Dominant coweight of the power-series double coset g in G(O) t^lam G(O).

    The k-th determinantal divisor d_k is the least t-valuation of a k x k
    minor of g, with d_0 = 0 and d_n the determinant's exponent; the
    elementary divisors at t = 0 are t^(d_k - d_(k-1)), and lam lists their
    exponents decreasingly.
    """
    rows, scales = _int_rows(g.entries)
    return _stratum(rows, _unit_monomial(_raw_det(rows), scales)[0])


def _stratum(rows: list[list[Raw]], exponent: int) -> Coweight:
    # scaling rows or columns by nonzero constants moves no minor's valuation
    n = len(rows)
    lows = [[min(p) if p else None for p in row] for row in rows]
    divisors = [0, min(v for low in lows for v in low if v is not None)][:n]  # d_0 and, if n > 1, d_1
    for k in range(2, n):
        # a minor's valuation is at least the sum over its rows of their least valuation in
        # its columns, and a row that is zero there makes it zero; minors are visited by
        # increasing bound until the bound reaches the least valuation found
        bounded = []
        for cols in combinations(range(n), k):
            row_lows = {i: min(v) for i, low in enumerate(lows) if (v := [low[j] for j in cols if low[j] is not None])}
            bounded += [(sum(row_lows[i] for i in sub), sub, cols) for sub in combinations(row_lows, k)]
        least = None
        for bound, sub, cols in sorted(bounded):
            if least is not None and bound >= least:
                break
            if minor := _raw_det([[rows[i][j] for j in cols] for i in sub]):
                least = min(minor) if least is None else min(least, min(minor))
        divisors.append(least)
    divisors.append(exponent)
    steps = [b - a for a, b in zip(divisors, divisors[1:])]
    # the elementary divisors divide one another, so the steps cannot decrease
    if steps != sorted(steps):
        raise TheoremViolationError(f"determinantal divisors {tuple(divisors)} do not form a divisibility chain")
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
    Spitkovsky, 2003), i.e. the splitting type.  The leading coefficients are
    singular exactly while the column degrees sum above the determinant's
    exponent, so the reduction runs until they sum to it; a step that lowers
    no column degree raises TheoremViolationError.
    """
    cols, scales = _int_rows(zip(*g.entries))
    return _splitting(cols, _unit_monomial(_raw_det(cols), scales)[0])  # read before the reduction rewrites cols


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


def _content(col: list[dict[int, Pair]]) -> int:
    """The gcd of a column's numerators, stopping as soon as it reaches 1."""
    g = 0
    for p in col:
        for a, b in p.values():
            g = gcd(g, a, b)
            if g == 1:
                return 1
    return g


def _splitting(cols: list[list[Raw]], exponent: int) -> Coweight:
    # t^N g has g's column degrees plus N, so the reduction runs on g.  Scaling a
    # column or a row by a constant is unimodular, so it runs on Z[i] numerators
    # (Beelen, van den Hurk and Praagman, Syst. Control Lett. 11, 1988).
    n = len(cols)
    degs = [max(max(p) for p in col if p) for col in cols]
    # the t^sum(degs) coefficient of det g = c t^e is the determinant of the leading
    # column coefficients, so they are singular exactly while sum(degs) > e
    while sum(degs) > exponent:
        if (v := _kernel_vector([[col[i].get(d, (0, 0)) for col, d in zip(cols, degs)] for i in range(n)])) is None:
            raise TheoremViolationError(f"column reduction found nonsingular leading coefficients at column "
                                        f"degrees {tuple(degs)}, above the determinant exponent {exponent}")
        # the sum of v_j * t^(top - d_j) * col_j over the support of v cancels the top column's lead
        support = [j for j in range(n) if v[j] != (0, 0)]
        top = max(support, key=degs.__getitem__)
        monomials = [(j, {degs[top] - degs[j]: v[j]}) for j in support]
        new = [_raw_dot([(cols[j][i], q) for j, q in monomials]) for i in range(n)]
        if (deg := max(max(p) for p in new if p)) >= degs[top]:
            raise TheoremViolationError(f"column reduction did not lower column {top} at column degrees {tuple(degs)}")
        degs[top] = deg
        # dividing out the content is unimodular too, and keeps the numerators from swelling
        if (content := _content(new)) > 1:
            new = [{e: (a // content, b // content) for e, (a, b) in p.items()} for p in new]
        cols[top] = new
    lam = tuple(sorted(degs, reverse=True))
    if sum(lam) != exponent:
        raise TheoremViolationError(f"partial indices {lam} do not sum to the determinant exponent {exponent}")
    return lam


# ---------------------------------------------------------------------------
# orbit invariants


def k_orbit_invariant(g: LaurentMatrix) -> Coweight:
    """Stratum invariant of the symmetrized loop; guaranteed to be fixed by the
    form's lattice involution, and checked."""
    return _orbit_invariant(g, False, "the unique-real-representative law")


def r_orbit_invariant(g: LaurentMatrix) -> Coweight:
    """Splitting type of the real-symmetrized loop; guaranteed to be a dominant
    real coweight, and checked."""
    return _orbit_invariant(g, True, "the real double-coset law")


def _orbit_invariant(g: LaurentMatrix, real: bool, law: str) -> Coweight:
    # the splitting type (real) or the stratum invariant of a(g) * g, which the law makes lattice-fixed
    form = form_action(g.form)
    lam = (_splitting if real else _stratum)(*form._anti_product(g, real))
    if not form.lattice_fixed(lam):
        raise TheoremViolationError(
            f"{'r' if real else 'k'}-orbit invariant {lam} is not fixed by the lattice involution of {form.name}; "
            f"{law} fails, so the form/matrix pair is inconsistent"
        )
    return lam


# ---------------------------------------------------------------------------
# geodesic representatives


def _split_membership_error(form: FormAction, lam) -> str | None:
    if len(lam) != form.n:
        return f"coweight must have length {form.n}"
    if (mu := form._coordinates(lam, entry := catalog(form.entry))) is None:
        return "special form requires coordinate sum zero"
    try:
        member = fundgroup.in_image_semigroup(entry.spec, mu)
    except ValidationError:  # theta is the identity, so only dominance can fail
        return "coweight must be dominant (non-increasing entries)"
    return None if member else "parity obstruction: an odd number of odd entries has no based loop"


def geodesic_representative(form: FormAction | str, lam: Coweight) -> LaurentMatrix:
    """An exactly-verified based loop whose real symmetrization is t^lam, for
    lam whose ``to_entry`` image is in the entry's parameterizing sub-semigroup.

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

    entries = {(i, i): LaurentPoly.t_power(a // 2) for i, a in enumerate(lam) if a % 2 == 0}
    odd_positions = [i for i, a in enumerate(lam) if a % 2]
    for i, j in zip(odd_positions[::2], odd_positions[1::2]):
        a, b = lam[i], lam[j]  # [[cos, sin], [-sin, cos]] of the half angles a/2 and b/2
        entries[i, i] = LaurentPoly({(a + 1) // 2: HALF, (a - 1) // 2: HALF})
        entries[i, j] = LaurentPoly({(b + 1) // 2: HALF_OVER_I, (b - 1) // 2: -HALF_OVER_I})
        entries[j, i] = LaurentPoly({(a + 1) // 2: -HALF_OVER_I, (a - 1) // 2: HALF_OVER_I})
        entries[j, j] = LaurentPoly({(b + 1) // 2: HALF, (b - 1) // 2: HALF})
    loop = lm_from_rows(form.name, _rows(form.n, LP_ZERO, entries))
    target = diagonal_loop(form.name, lam)
    if not loops_equal(mat_mul(form.real_antiinvolution(loop), loop), target):
        raise TheoremViolationError(
            f"geodesic construction for {tuple(lam)} failed its exact multiplication check"
        )
    return loop


# ---------------------------------------------------------------------------
# seeded random loops


def _exp_nilpotent(form_name: str, rows) -> tuple[tuple[LaurentPoly, ...], ...]:
    """The rows of exp of a strictly triangular Laurent matrix, exact since X^n = 0."""
    x = lm_from_rows(form_name, rows)
    total = power = identity_loop(form_name, x.n)
    fact = 1
    for k in range(1, x.n):
        power, fact = mat_mul(power, x), fact * k
        c = _make(1, 0, fact)
        total = lm_from_rows(
            form_name, [[a + b.scale(c) for a, b in zip(r, s)] for r, s in zip(total.entries, power.entries)]
        )
    return total.entries


def _rng(form: FormAction, kind: str, seed: int):
    """The generator of one seeded family of loops of a form."""
    import random

    return random.Random(f"{form.name}:{kind}:{seed}")


def _strict_positions(n, rng, upper):
    pairs = [(i, j) for i in range(n) for j in range(n) if (j > i if upper else j < i)]
    return rng.choice(pairs)


def _product(form: FormAction | str, kind: str, seed: int, factor) -> LaurentMatrix:
    """The seeded product of one family of loops of a form: up to 3 (n = 2) or 2
    factors, each the rows that ``factor(form, rng)`` draws."""
    if isinstance(form, str):
        form = form_action(form)
    rng = _rng(form, kind, seed)
    g = identity_loop(form.name, form.n)
    for _ in range(rng.randint(0, 3 if form.n == 2 else 2)):
        g = mat_mul(g, lm_from_rows(form.name, factor(form, rng)))
    return g


def _real_factor(form: FormAction, rng) -> list[list[LaurentPoly]]:
    n, kind = form.n, rng.random()
    if form.family == "split":
        if kind < 0.4 and n > 1:
            # exp(N * (t^k + t^-k)) with N real and one off-diagonal entry, so N^2 = 0 and exp is 1 + N
            i, j = _strict_positions(n, rng, upper=rng.random() < 0.5)
            c = Gaussian(rng.choice([-1, 1, 2]))
            k = rng.choice([0, 1])
            return _rows(n, LP_ONE, {(i, j): LaurentPoly({k: c, -k: c})})
        if kind < 0.8 and n > 1 and not form.special:
            # constant real elementary matrix
            i, j = _strict_positions(n, rng, upper=rng.random() < 0.5)
            return _rows(n, LP_ONE, {(i, j): LaurentPoly.constant(rng.choice([-2, -1, 1, 2]))})
        signs = [rng.choice([1, -1]) for _ in range(n)]
        if form.special and len([s for s in signs if s < 0]) % 2:
            signs[0] = -signs[0]
        return _rows(n, LP_ZERO, {(i, i): LaurentPoly.constant(x) for i, x in enumerate(signs)})
    if kind < 0.6 and n > 1:
        # exp(N t^k - J conj(N)^T J t^-k), strictly upper hence nilpotent: the J-twisted transpose stays strictly upper
        i, j = _strict_positions(n, rng, upper=True)
        c = Gaussian(rng.choice([-1, 0, 1]), rng.choice([-1, 0, 1])) or G_ONE
        k = rng.choice([0, 1])
        rows = _rows(n, LP_ZERO, {(i, j): LaurentPoly.t_power(k, c)})
        rows[n - 1 - j][n - 1 - i] += LaurentPoly.t_power(-k, -c.conjugate())
        return _exp_nilpotent(form.name, rows)
    if kind < 0.8:
        return _rows(n, LP_ZERO, {(i, n - 1 - i): LP_ONE for i in range(n)})  # J
    units = [G_I, -G_I, G_ONE, -G_ONE]
    d = [rng.choice(units) for _ in range(n)]
    for i in range(n):  # anti-diagonal pairing conj(d_i) d_{n-1-i} = 1, and 1/conj(u) = u for a unit u of Z[i]
        d[n - 1 - i] = d[i]
    return _rows(n, LP_ZERO, {(i, i): LaurentPoly.constant(x) for i, x in enumerate(d)})


def _k_factor(form: FormAction, rng) -> list[list[LaurentPoly]]:
    n, kind = form.n, rng.random()
    if form.family == "split":
        if n == 1:
            return _rows(1, LP_ZERO, {(0, 0): LaurentPoly.constant(rng.choice([1, -1]))})
        i, j = _strict_positions(n, rng, upper=True)
        if kind < 0.5:  # cos/sin pair (t + 1/t)/2 and (t - 1/t)/(2i), orthogonal and based
            c, s = LaurentPoly({1: HALF, -1: HALF}), LaurentPoly({1: HALF_OVER_I, -1: -HALF_OVER_I})
        else:
            c, s = LaurentPoly.constant(_make(3, 0, 5)), LaurentPoly.constant(_make(4, 0, 5))
        if kind > 0.85 and not form.special:  # the rotation times the reflection at i: column i negated
            return _rows(n, LP_ONE, {(i, i): -c, (i, j): s, (j, i): s, (j, j): c})
        return _rows(n, LP_ONE, {(i, i): c, (i, j): s, (j, i): -s, (j, j): c})
    # loops commuting with the anti-diagonal J: a*I + b*J patterns
    e1, e2 = rng.choice([0, 1]), rng.choice([0, -1, 1])
    u = LaurentPoly.t_power(e1, rng.choice([G_ONE, -G_ONE]))
    v = LaurentPoly.t_power(e2, rng.choice([G_ONE, G_I]))
    a = (u + v).scale(HALF)
    b = (v - u).scale(HALF)
    return _rows(n, a, {(i, n - 1 - i): a + b if 2 * i == n - 1 else b for i in range(n)})


def _polynomial_factor(form: FormAction, rng) -> list[list[LaurentPoly]]:
    n, kind = form.n, rng.random()
    if kind < 0.7 and n > 1:
        i, j = _strict_positions(n, rng, upper=rng.random() < 0.5)
        coeff = Gaussian(rng.choice([-1, 1]), rng.choice([-1, 0, 1]))
        return _rows(n, LP_ONE, {(i, j): LaurentPoly.t_power(rng.choice([0, 1]), coeff)})
    units = [G_ONE, -G_ONE, G_I] if not form.special else [G_ONE]
    return _rows(n, LP_ZERO, {(i, i): LaurentPoly.constant(rng.choice(units)) for i in range(n)})


def random_real_loop(form: FormAction | str, seed: int) -> LaurentMatrix:
    """Deterministic product of generators of the real polynomial loop group."""
    g = _product(form, "real", seed, _real_factor)
    if not form_action(g.form).is_real_loop(g):
        raise TheoremViolationError("generated loop failed its real symmetry postcondition")
    return g


def random_k_loop(form: FormAction | str, seed: int) -> LaurentMatrix:
    """Deterministic product of generators of the symmetric-subgroup loop group."""
    g = _product(form, "k", seed, _k_factor)
    if not form_action(g.form).is_symmetric_subgroup_loop(g):
        raise TheoremViolationError("generated loop failed its symmetric-subgroup postcondition")
    return g


def random_polynomial_loop(form: FormAction | str, seed: int, negative: bool = False) -> LaurentMatrix:
    """Deterministic polynomial loop: unipotents with polynomial entries times
    constant invertibles; with ``negative`` the loop lives in t^-1 instead."""
    g = _product(form, "poly", seed, _polynomial_factor)
    if negative:
        g = apply_tau(g)
        if max_degree(g) > 0:
            raise TheoremViolationError("negative polynomial loop has positive powers")
    elif min_valuation(g) < 0:
        raise TheoremViolationError("polynomial loop has negative powers")
    return g
