"""Exact root-datum arithmetic on a fixed integer lattice.

Coweights are integer vectors in Z^rank (the cocharacter lattice); roots live
in the dual copy and pair with coweights by the plain dot product.  All
computations are integer exact: every solve in the lattice layer comes from
one Smith normal form, and nothing here ever touches floats.  Each order on
coweights is compiled once per solver (``monoid_order``) into straight-line
tests of side sums, a row's form at upper against its form at lower, so a
comparison does no solve, no loop, no subscript and no difference vector.

A root datum is checked by one walk over the W-orbits of its simple (root,
coroot) pairs, which gives each root's coefficients in the simple roots with
no solve.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import cached_property
from itertools import compress
from math import prod
from operator import add, mul

from .errors import ValidationError
from .record import Record

Coweight = tuple[int, ...]
IntMatrix = tuple[tuple[int, ...], ...]


# ---------------------------------------------------------------------------
# small exact vector/matrix helpers


def vec_add(u: Coweight, v: Coweight) -> Coweight:
    return tuple(map(add, u, v))


def vec_neg(u: Coweight) -> Coweight:
    return tuple(-a for a in u)


def vec_scale(c: int, u: Coweight) -> Coweight:
    return tuple(c * a for a in u)


def dot(u, v) -> int:
    return sum(map(mul, u, v))


def fmt_coweight(vec) -> str:
    return "(" + ",".join(map(str, vec)) + ")"


def identity_matrix(n: int) -> IntMatrix:
    return tuple((0,) * i + (1,) + (0,) * (n - 1 - i) for i in range(n))


def mat_vec(m: IntMatrix, v) -> Coweight:
    return tuple(dot(row, v) for row in m)


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    bt = tuple(zip(*b))
    return tuple(tuple(dot(row, col) for col in bt) for row in a)


# ---------------------------------------------------------------------------
# root data


class RootDatum(Record):
    """A reductive root datum with cocharacter lattice Z^rank.

    roots[i] pairs with coroots[i]; simple_indices select the simple system.
    The full root set (positives and negatives) must be listed so reflection
    closure is checkable.
    """

    rank: int
    roots: tuple[Coweight, ...]
    coroots: tuple[Coweight, ...]
    simple_indices: tuple[int, ...]
    name: str = ""

    @cached_property
    def root_coefficients(self) -> tuple[Coweight, ...]:
        """Each root's coefficients in the simple roots, built on first use by walking the W-orbits of the simple pairs
        (alpha_j, alpha_j^vee): s_j maps a pair (a, b) to (a - <a, alpha_j^vee> alpha_j, b - <alpha_j, b> alpha_j^vee)
        and lowers coefficient j by <a, alpha_j^vee>, unless both pairings are 0.  Each simple root and coroot is read
        once, as its places and entries where it is nonzero, so a step costs those, not the rank.  Refuses the first
        image that is not a listed pair, then the first pair never reached.  ``validate_root_datum`` first finds the
        simple roots independent, so the coefficients are unique."""
        listed = {pair: i for i, pair in enumerate(zip(self.roots, self.coroots))}
        axes = range(self.rank)
        simple = [(s, tuple(compress(axes, alpha := self.roots[s])), tuple(compress(alpha, alpha)),
                   tuple(compress(axes, alpha_vee := self.coroots[s])), tuple(compress(alpha_vee, alpha_vee)))
                  for s in self.simple_indices]
        coefficients = dict(zip(self.simple_indices, identity_matrix(len(simple))))
        queue = list(coefficients)
        for i in queue:
            a, b, c = self.roots[i], self.coroots[i], coefficients[i]
            at, bt = a.__getitem__, b.__getitem__
            for j, (s, places, entries, places_vee, entries_vee) in enumerate(simple):
                p, q = sum(map(mul, map(at, places_vee), entries_vee)), sum(map(mul, map(bt, places), entries))
                if not (p or q):
                    continue
                x, y = list(a), list(b)
                for t, e in zip(places, entries):
                    x[t] -= p * e
                for t, e in zip(places_vee, entries_vee):
                    y[t] -= q * e
                if (m := listed.get(image := (tuple(x), tuple(y)))) is None:
                    raise ValidationError(f"reflection at simple root {s} does not permute the root-coroot pairs"
                                          f" (root {image[0]} with coroot {image[1]} missing)")
                if m not in coefficients:
                    coefficients[m] = (*c[:j], c[j] - p, *c[j + 1:])
                    queue.append(m)
        found = tuple(map(coefficients.get, range(len(self.roots))))
        if None in found:
            i = found.index(None)
            raise ValidationError(f"root {self.roots[i]} with coroot {self.coroots[i]}"
                                  " is not W-conjugate to a simple root with its coroot")
        return found

    @cached_property
    def coroot_smith_form(self) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
        """``smith_normal_form`` U C V = D of the matrix C whose columns are the simple
        coroots, built on first use: ``coroot_solver`` and the image lattice of a
        split real form are both read off it."""
        return smith_normal_form(column_matrix(simple_coroots(self), self.rank))

    @cached_property
    def coroot_solver(self) -> tuple[int, IntMatrix, IntMatrix]:
        """``integer_solver`` of the simple coroots, read off ``coroot_smith_form``."""
        try:
            return solver_of_smith_form(self.coroot_smith_form, len(self.simple_indices))
        except ValidationError:
            raise ValidationError("simple coroots are linearly dependent")

    @cached_property
    def coroot_order(self):
        """``monoid_order`` of ``coroot_solver``, compiled on first use."""
        return monoid_order(self.coroot_solver, self.rank)

    @cached_property
    def positive_root_indices(self) -> tuple[int, ...]:
        """Indices of the roots whose ``root_coefficients`` are all non-negative."""
        return tuple(i for i, c in enumerate(self.root_coefficients) if min(c) >= 0)

    @cached_property
    def positive_roots(self) -> tuple[Coweight, ...]:
        """The positive roots, the simple ones first in ``simple_indices`` order."""
        simple = self.simple_indices
        return (*simple_roots(self), *(self.roots[i] for i in self.positive_root_indices if i not in simple))

    @cached_property
    def two_rho(self) -> Coweight:
        """Sum of the positive roots; the height functional on coweights."""
        total = (0,) * self.rank
        for i in self.positive_root_indices:
            total = vec_add(total, self.roots[i])
        return total


def simple_roots(datum: RootDatum) -> tuple[Coweight, ...]:
    return tuple(datum.roots[i] for i in datum.simple_indices)


def simple_coroots(datum: RootDatum) -> tuple[Coweight, ...]:
    return tuple(datum.coroots[i] for i in datum.simple_indices)


def positive_coroots(datum: RootDatum) -> tuple[Coweight, ...]:
    return tuple(datum.coroots[i] for i in datum.positive_root_indices)


def _require_rank(datum: RootDatum, coweights) -> None:
    """Refuse a coweight whose length is not the rank; one iterable, as ``*args`` would copy a slice."""
    rank = datum.rank
    for coweight in coweights:
        if len(coweight) != rank:
            raise ValidationError(f"{coweight} does not have length rank={rank}")


def height(datum: RootDatum, coweight: Coweight) -> int:
    _require_rank(datum, (coweight,))
    return dot(datum.two_rho, coweight)


def is_dominant(datum: RootDatum, coweight: Coweight) -> bool:
    _require_rank(datum, (coweight,))
    return all(dot(datum.roots[i], coweight) >= 0 for i in datum.simple_indices)


def validate_root_datum(datum: RootDatum) -> list[str]:
    """Return the list of violated invariants; empty means valid."""
    problems: list[str] = []
    if datum.rank < 1:
        return ["rank must be a positive integer"]
    if len(datum.roots) != len(datum.coroots):
        return ["roots and coroots must be index-paired lists of equal length"]
    for vec in (*datum.roots, *datum.coroots):
        if len(vec) != datum.rank:
            return [f"vector {vec} does not have length rank={datum.rank}"]
    if len(set(datum.simple_indices)) != len(datum.simple_indices):
        problems.append("simple_indices contains duplicates")
    if any(i < 0 or i >= len(datum.roots) for i in datum.simple_indices):
        return ["simple_indices out of range"]
    if len(set(datum.coroots)) != len(datum.coroots):
        problems.append("coroot list contains duplicates")
    simple = datum.simple_indices
    pairings = [f"pairing <alpha_{i}, alpha_{i}^vee> = {p}, expected 2"
                for i in simple if (p := dot(datum.roots[i], datum.coroots[i])) != 2]
    problems += pairings
    if len(simple) > datum.rank:  # dependent on their face, with no k x k Smith form
        return problems + ["simple roots are linearly dependent"]
    cartan = tuple(tuple(dot(datum.roots[j], datum.coroots[i]) for j in simple) for i in simple)
    if simple and not smith_normal_form(cartan)[1][-1][-1]:  # d_k = 0 iff the Cartan matrix is singular
        return problems + ["simple roots are linearly dependent"]
    if pairings:  # reflections are meaningless without the pairing axiom
        return problems
    roots = set(datum.roots)
    double = next((r for r in datum.roots if vec_scale(2, r) in roots), None)
    if double is not None:  # no reductive group has one; the walk would leave a root or its double unreached
        return problems + [f"root {double} and its double are both roots: the root system is not reduced"]
    try:
        coefficients = datum.root_coefficients
    except ValidationError as exc:
        return problems + [str(exc)]
    return problems + [f"root {root} is not a signed non-negative integer combination of simples"
                       for root, c in zip(datum.roots, coefficients) if min(c) < 0 < max(c)]


def require_valid(datum: RootDatum) -> None:
    problems = validate_root_datum(datum)
    if problems:
        raise ValidationError(f"invalid root datum {datum.name!r}: " + "; ".join(problems))


# ---------------------------------------------------------------------------
# dominance and Weyl combinatorics


def column_matrix(columns: tuple[Coweight, ...], dim: int) -> IntMatrix:
    """The dim x len(columns) matrix with the given columns."""
    return tuple(zip(*columns)) if columns else ((),) * dim


def integer_solver(columns: tuple[Coweight, ...], dim: int) -> tuple[int, IntMatrix, IntMatrix]:
    """Integer data (den, rows, consistency) for writing a vector of length dim in
    the given independent columns, read off the Smith normal form of their matrix
    (``solver_of_smith_form``)."""
    return solver_of_smith_form(smith_normal_form(column_matrix(columns, dim)), len(columns))


def solver_of_smith_form(smith: tuple[IntMatrix, IntMatrix, IntMatrix], k: int) -> tuple[int, IntMatrix, IntMatrix]:
    """``integer_solver`` data of k columns read off the Smith normal form
    U A V = D of their matrix A.

    A vector v is in the span of the columns iff every consistency row (the
    rows of U past the rank) pairs to 0 with it; its coordinates V D^-1 U v
    are then rows @ v divided by den, the last invariant factor, with
    rows = V diag(den / d_i) U[:k].
    """
    u, d, v = smith
    if k > len(u):
        raise ValidationError("more columns than the dimension passed to integer_solver")
    den = d[k - 1][k - 1] if k else 1  # d_1 | d_2 | ...: zero iff the columns are dependent
    if not den:
        raise ValidationError("dependent columns passed to integer_solver")
    return den, mat_mul(v, tuple(vec_scale(den // d[i][i], u[i]) for i in range(k))), u[k:]


def _linear_form(row, var: str) -> str:
    """Source of the integer form sum(row[i] * var_i), zero terms left out."""
    terms = (f"{'-' if c < 0 else '+'} {f'{abs(c)} * ' if abs(c) != 1 else ''}{var}{i}" for i, c in enumerate(row) if c)
    return " ".join(terms).removeprefix("+ ")


def monoid_order(solver: tuple[int, IntMatrix, IntMatrix], rank: int) -> Callable[[Coweight, Coweight], bool]:
    """The order of the free monoid on the columns of an ``integer_solver`` (upper -
    lower pairs to 0 with every consistency row and to a non-negative multiple of
    den with every solve row) as a function ``leq(lower, upper)`` of
    straight-line code with the solver's integers written in: it unpacks the
    arguments into l_i and u_i, refusing a length other than rank, and returns
    U == L for each consistency row and U >= L (and (U - L) % den == 0 if den > 1)
    for each solve row, joined by ``and``, U and L the row's forms at upper and lower."""
    den, rows, consistency = solver
    tests = [f"{_linear_form(row, 'u')} == {_linear_form(row, 'l')}" for row in consistency if any(row)]
    for j, row in enumerate(rows):
        if any(row):
            up, low = _linear_form(row, "u"), _linear_form(row, "l")
            tests.append(f"(c{j} := {up} - ({low})) >= 0 and c{j} % {den} == 0" if den > 1 else f"{up} >= {low}")
    lows, ups = ("".join(f"{v}{i}, " for i in range(rank)) for v in "lu")  # "l0, l1, " and "u0, u1, "
    source = (
        f"def leq(lower, upper):\n    try:\n        ({lows}) = lower\n        ({ups}) = upper\n"
        "    except ValueError:\n        raise refusal(lower, upper) from None\n"
        f"    return {' and '.join(tests) or 'True'}\n"
    )
    namespace = {"refusal": lambda a, b: ValidationError(f"{a} and {b} must both have length rank={rank}")}
    exec(source, namespace)
    return namespace["leq"]


def dominance_leq(datum: RootDatum, lower: Coweight, upper: Coweight) -> bool:
    """Coroot dominance order: lower <= upper iff the difference is a
    non-negative integer combination of simple coroots."""
    return datum.coroot_order(lower, upper)


def sub_two_rho_vee(datum: RootDatum, subset: tuple[int, ...]) -> Coweight:
    """2 rho_M^vee: the sum of the positive coroots of the sub-system of the
    given simple indices, whose roots have coefficient 0 (``root_coefficients``)
    at every simple root outside it."""
    outside = [j for j, i in enumerate(datum.simple_indices) if i not in subset]
    x, coefficients = (0,) * datum.rank, datum.root_coefficients
    for idx in datum.positive_root_indices:
        if not any(coefficients[idx][j] for j in outside):
            x = vec_add(x, datum.coroots[idx])
    return x


# ---------------------------------------------------------------------------
# Smith normal form and finite abelian quotients


def smith_normal_form(matrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """U, D, V with U @ M @ V = D, U and V unimodular, D diagonal, d1 | d2 | ...

    One elimination in place on the augmented rows [[M, U], [V]]: a row
    operation spans a whole row of the first m, a column operation the first
    n columns of all m + n rows.  Pivoting is deterministic (smallest nonzero
    absolute value, ties row-major) so everything built on it is reproducible.
    """
    a = [list(r) for r in matrix]
    m, n = len(a), (len(a[0]) if a else 0)
    if any(len(r) != n for r in a):
        raise ValidationError("ragged matrix")
    a = [r + [int(i == j) for j in range(m)] for i, r in enumerate(a)]
    a += ([int(i == j) for j in range(n)] for i in range(n))
    t = 0
    while t < min(m, n):
        best = 0
        for i in range(t, m):
            for j in range(t, n):
                if a[i][j] and (not best or abs(a[i][j]) < best):
                    best, p, q = abs(a[i][j]), i, j
        if not best:
            break
        a[t], a[p] = a[p], a[t]
        for r in a:
            r[t], r[q] = r[q], r[t]
        pivot = a[t][t]
        for i in range(t + 1, m):
            if c := a[i][t] // pivot:
                a[i] = [x - c * y for x, y in zip(a[i], a[t])]
        for j in range(t + 1, n):
            if c := a[t][j] // pivot:
                for r in a:
                    r[j] -= c * r[t]
        if any(a[t][t + 1:n]) or any(a[i][t] for i in range(t + 1, m)):
            continue
        # the pivot must divide the rest of the block: else pull an offending row up
        offender = next((i for i in range(t + 1, m) for j in range(t + 1, n) if a[i][j] % pivot), None)
        if offender is not None:
            a[t] = [x + y for x, y in zip(a[t], a[offender])]
            continue
        if pivot < 0:  # row t is final
            a[t] = [-x for x in a[t]]
        t += 1
    return tuple(tuple(r[n:]) for r in a[:m]), tuple(tuple(r[:n]) for r in a[:m]), tuple(map(tuple, a[m:]))


def kernel_basis(matrix, dim: int) -> tuple[Coweight, ...]:
    """Sorted basis of the integer kernel of a matrix with dim columns, a saturated
    sublattice of Z^dim: the unit basis, with no Smith normal form, if it has no rows."""
    if not matrix:
        return identity_matrix(dim)[::-1]
    m = len(matrix)
    _, d, v = smith_normal_form(matrix)
    basis = []
    for j in range(dim):
        dj = d[j][j] if j < min(m, dim) else 0
        if dj == 0:
            col = tuple(v[i][j] for i in range(dim))
            first = next((x for x in col if x != 0), 0)
            basis.append(vec_neg(col) if first < 0 else col)
    return tuple(sorted(basis))


class FiniteAbelianGroup(Record):
    """A finitely generated abelian group in invariant-factor normal form.

    invariant_factors lists the nontrivial factors (each >= 2, divisibility
    chain) followed by zeros for free summands.  projection maps an
    ambient-lattice vector to its normal-form coordinates; two vectors share
    their class when those agree modulo every nonzero factor.
    """

    invariant_factors: tuple[int, ...]
    projection: IntMatrix

    def order(self) -> int | None:
        return None if 0 in self.invariant_factors else prod(self.invariant_factors)

    def describe(self) -> str:
        if not self.invariant_factors:
            return "1"
        return " x ".join("Z" if f == 0 else f"Z/{f}" for f in self.invariant_factors)


def quotient_group(ambient_rank: int, sublattice_generators: tuple[Coweight, ...]) -> FiniteAbelianGroup:
    """The quotient of Z^ambient_rank by the span of the given generators."""
    k = len(sublattice_generators)
    u, d, _ = smith_normal_form(column_matrix(sublattice_generators, ambient_rank))
    # the Smith diagonal is a divisibility chain, so its zeros (the free factors) come last
    return invariant_quotient([d[i][i] if i < k else 0 for i in range(ambient_rank)], u)


def invariant_quotient(factors: list[int], rows) -> FiniteAbelianGroup:
    """The group with the given factors on the given projection rows, the factors 1 dropped."""
    kept = [i for i, f in enumerate(factors) if f != 1]
    return FiniteAbelianGroup(tuple(factors[i] for i in kept), tuple(rows[i] for i in kept))


def pi1_of_group(datum: RootDatum) -> FiniteAbelianGroup:
    """Fundamental group: cocharacters modulo the coroots, whose span the simple ones span (``validate_root_datum``)."""
    u, d, _ = datum.coroot_smith_form
    return invariant_quotient([d[i][i] if i < len(datum.simple_indices) else 0 for i in range(datum.rank)], u)


# ---------------------------------------------------------------------------
# stock data used by the catalog and the matrix model


def gl_datum(n: int) -> RootDatum:
    """GL_n with the standard diagonal torus: roots e_i - e_j in the dual basis."""
    roots = []
    coroots = []
    simple = []
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            vec = tuple(1 if k == i else -1 if k == j else 0 for k in range(n))
            if j == i + 1:
                simple.append(len(roots))
            roots.append(vec)
            coroots.append(vec)
    return RootDatum(rank=n, roots=tuple(roots), coroots=tuple(coroots),
                     simple_indices=tuple(simple), name=f"gl{n}")


def sl2_datum() -> RootDatum:
    """SL_2 on its coroot lattice: alpha = (2), alpha_vee = (1)."""
    return RootDatum(rank=1, roots=((2,), (-2,)), coroots=((1,), (-1,)),
                     simple_indices=(0,), name="sl2")


def pgl2_datum() -> RootDatum:
    """Adjoint form of SL_2: lattice Z*omega with alpha_vee = 2*omega, alpha = omega*."""
    return RootDatum(rank=1, roots=((1,), (-1,)), coroots=((2,), (-2,)),
                     simple_indices=(0,), name="pgl2")


def sl3_datum() -> RootDatum:
    """SL_3 in simple-coroot coordinates."""
    roots = ((2, -1), (-1, 2), (1, 1), (-2, 1), (1, -2), (-1, -1))
    coroots = ((1, 0), (0, 1), (1, 1), (-1, 0), (0, -1), (-1, -1))
    return RootDatum(rank=2, roots=roots, coroots=coroots, simple_indices=(0, 1), name="sl3")


def sl2xsl2_datum() -> RootDatum:
    """SL_2 x SL_2 on the product of coroot lattices."""
    roots = ((2, 0), (0, 2), (-2, 0), (0, -2))
    coroots = ((1, 0), (0, 1), (-1, 0), (0, -1))
    return RootDatum(rank=2, roots=roots, coroots=coroots, simple_indices=(0, 1), name="sl2xsl2")
