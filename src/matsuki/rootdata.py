"""Exact root-datum arithmetic on a fixed integer lattice.

Coweights are integer vectors in Z^rank (the cocharacter lattice); roots live
in the dual copy and pair with coweights by the plain dot product.  All
computations are integer exact: every solve in the lattice layer comes from
one Smith normal form, and nothing here ever touches floats.  Each order on
coweights is compiled once per solver (``monoid_order``) into straight-line
tests of side sums, a row's form at upper against its form at lower, so a
comparison does no solve, no loop, no subscript and no difference vector.

Weyl group elements are handled as integer matrices acting on the cocharacter
lattice, except where an explicit reflection word is part of a result.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import cached_property
from operator import add, mul, sub

from .errors import ValidationError
from .record import Record

Coweight = tuple[int, ...]
IntMatrix = tuple[tuple[int, ...], ...]


# ---------------------------------------------------------------------------
# small exact vector/matrix helpers


def vec_add(u: Coweight, v: Coweight) -> Coweight:
    return tuple(map(add, u, v))


def vec_sub(u: Coweight, v: Coweight) -> Coweight:
    return tuple(map(sub, u, v))


def vec_neg(u: Coweight) -> Coweight:
    return tuple(-a for a in u)


def vec_scale(c: int, u: Coweight) -> Coweight:
    return tuple(c * a for a in u)


def dot(u, v) -> int:
    return sum(map(mul, u, v))


def fmt_coweight(vec) -> str:
    return "(" + ",".join(map(str, vec)) + ")"


def identity_matrix(n: int) -> IntMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_vec(m: IntMatrix, v) -> Coweight:
    return tuple(dot(row, v) for row in m)


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    bt = tuple(zip(*b))
    return tuple(tuple(dot(row, col) for col in bt) for row in a)


def mat_transpose(m: IntMatrix) -> IntMatrix:
    return tuple(zip(*m)) if m else ()


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

    def reflect(self, simple_index: int, coweight: Coweight) -> Coweight:
        """Simple reflection on cocharacters: x -> x - <alpha, x> alpha_vee."""
        alpha = self.roots[simple_index]
        avee = self.coroots[simple_index]
        return vec_sub(coweight, vec_scale(dot(alpha, coweight), avee))

    def reflection_matrix(self, simple_index: int) -> IntMatrix:
        alpha = self.roots[simple_index]
        avee = self.coroots[simple_index]
        return tuple(
            tuple((1 if i == j else 0) - avee[i] * alpha[j] for j in range(self.rank))
            for i in range(self.rank)
        )

    @cached_property
    def root_solver(self) -> tuple[int, IntMatrix, IntMatrix]:
        """``integer_solver`` of the simple roots, built on first use."""
        try:
            return integer_solver(simple_roots(self), dim=self.rank)
        except ValidationError:
            raise ValidationError("simple roots are linearly dependent")

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
        """Indices of roots expressible as non-negative integer combinations of simples."""
        zero = (0,) * self.rank
        return tuple(idx for idx, root in enumerate(self.roots) if free_monoid_leq(self.root_solver, zero, root))

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


def _require_rank(datum: RootDatum, coweight: Coweight) -> None:
    if len(coweight) != datum.rank:
        raise ValidationError(f"{coweight} does not have length rank={datum.rank}")


def height(datum: RootDatum, coweight: Coweight) -> int:
    _require_rank(datum, coweight)
    return dot(datum.two_rho, coweight)


def is_dominant(datum: RootDatum, coweight: Coweight) -> bool:
    _require_rank(datum, coweight)
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

    coroot_set, reflection_problems = set(datum.coroots), []
    for i in datum.simple_indices:
        p = dot(datum.roots[i], datum.coroots[i])
        if p != 2:
            problems.append(f"pairing <alpha_{i}, alpha_{i}^vee> = {p}, expected 2")
            continue  # reflection is meaningless without the pairing axiom
        beta = next((b for b in datum.coroots if datum.reflect(i, b) not in coroot_set), None)
        if beta is not None:
            reflection_problems.append(
                f"reflection at simple root {i} does not permute the coroot set (image of {beta} missing)"
            )
    problems += reflection_problems  # every pairing problem is listed first

    try:
        solver = datum.root_solver
    except ValidationError as exc:
        return problems + [str(exc)]
    zero = (0,) * datum.rank
    for root in datum.roots:
        if any(dot(row, root) for row in solver[2]):
            problems.append(f"root {root} lies outside the span of the simple roots")
        elif not (free_monoid_leq(solver, zero, root) or free_monoid_leq(solver, root, zero)):
            problems.append(
                f"root {root} is not a signed non-negative integer combination of simples"
            )
    return problems


def require_valid(datum: RootDatum) -> None:
    problems = validate_root_datum(datum)
    if problems:
        raise ValidationError(f"invalid root datum {datum.name!r}: " + "; ".join(problems))


# ---------------------------------------------------------------------------
# dominance and Weyl combinatorics


def dominant_representative(datum: RootDatum, coweight: Coweight) -> tuple[Coweight, tuple[int, ...]]:
    """Dominant member of the Weyl orbit, with the reflection word that reaches it.

    The word lists simple root indices in application order, so the result is
    s_{w[-1]} ... s_{w[0]} applied to the input.  Each step strictly increases
    the height pairing, which bounds the loop by the (finite) orbit.
    """
    _require_rank(datum, coweight)
    x = coweight
    word: list[int] = []
    while True:
        neg = next((i for i in datum.simple_indices if dot(datum.roots[i], x) < 0), None)
        if neg is None:
            return x, tuple(word)
        x = datum.reflect(neg, x)
        word.append(neg)


def column_matrix(columns: tuple[Coweight, ...], dim: int) -> IntMatrix:
    """The dim x len(columns) matrix with the given columns."""
    return tuple(zip(*columns)) if columns else ((),) * dim


def integer_solver(columns: tuple[Coweight, ...], dim: int | None = None) -> tuple[int, IntMatrix, IntMatrix]:
    """Integer data (den, rows, consistency) for writing a vector in the given
    independent columns, read off the Smith normal form of their matrix
    (``solver_of_smith_form``).  ``dim`` is required when the column list is
    empty."""
    if not columns and dim is None:
        raise ValidationError("integer_solver needs the ambient dimension for no columns")
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


def free_monoid_leq(solver: tuple[int, IntMatrix, IntMatrix], lower: Coweight, upper: Coweight) -> bool:
    """The order of the free monoid on the columns of an ``integer_solver``:
    upper - lower pairs to 0 with every consistency row and to a non-negative
    multiple of den with every solve row.  The orders called per comparison
    are ``monoid_order`` compilations of the same test; this loop serves a
    solver used a few times, as in ``realform._step_search``."""
    den, rows, consistency = solver
    diff = vec_sub(upper, lower)
    if any(dot(row, diff) for row in consistency):
        return False
    return all(c >= 0 and c % den == 0 for c in mat_vec(rows, diff))


def _linear_form(row, var: str) -> str:
    """Source of the integer form sum(row[i] * var_i), zero terms left out."""
    terms = (f"{'-' if c < 0 else '+'} {f'{abs(c)} * ' if abs(c) != 1 else ''}{var}{i}" for i, c in enumerate(row) if c)
    return " ".join(terms).removeprefix("+ ")


def monoid_order(solver: tuple[int, IntMatrix, IntMatrix], rank: int) -> Callable[[Coweight, Coweight], bool]:
    """``free_monoid_leq`` of one solver as a function ``leq(lower, upper)`` of
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
    given simple indices, whose roots have no simple root outside it."""
    outside = [j for j, i in enumerate(datum.simple_indices) if i not in subset]
    rows, x = datum.root_solver[1], (0,) * datum.rank
    for idx in datum.positive_root_indices:
        if not any(dot(rows[j], datum.roots[idx]) for j in outside):
            x = vec_add(x, datum.coroots[idx])
    return x


def weyl_longest_element(datum: RootDatum, subset: frozenset[int] | tuple[int, ...]) -> IntMatrix:
    """Matrix of the longest element of the parabolic Weyl subgroup.

    Drives a regular dominant vector of the sub-system (``sub_two_rho_vee``)
    to the anti-dominant chamber; the accumulated product of
    reflections is the longest element.
    """
    subset = tuple(sorted(subset))
    if any(i not in datum.simple_indices for i in subset):
        raise ValidationError(f"subset {subset} is not a set of simple indices")
    if not subset:
        return identity_matrix(datum.rank)
    x, w = sub_two_rho_vee(datum, subset), identity_matrix(datum.rank)
    while True:
        pos = next((i for i in subset if dot(datum.roots[i], x) > 0), None)
        if pos is None:
            return w
        x = datum.reflect(pos, x)
        w = mat_mul(datum.reflection_matrix(pos), w)


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


def kernel_basis(matrix) -> tuple[Coweight, ...]:
    """Basis of the integer kernel, a saturated sublattice of the column domain."""
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    if n == 0:
        return ()
    _, d, v = smith_normal_form(matrix)
    basis = []
    for j in range(n):
        dj = d[j][j] if j < min(m, n) else 0
        if dj == 0:
            col = tuple(v[i][j] for i in range(n))
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
        if any(f == 0 for f in self.invariant_factors):
            return None
        total = 1
        for f in self.invariant_factors:
            total *= f
        return total

    def describe(self) -> str:
        if not self.invariant_factors:
            return "1"
        return " x ".join("Z" if f == 0 else f"Z/{f}" for f in self.invariant_factors)


def quotient_group(ambient_rank: int, sublattice_generators: tuple[Coweight, ...]) -> FiniteAbelianGroup:
    """The quotient of Z^ambient_rank by the span of the given generators."""
    if ambient_rank == 0:
        return FiniteAbelianGroup((), ())
    if not sublattice_generators:
        return FiniteAbelianGroup((0,) * ambient_rank, identity_matrix(ambient_rank))
    k = len(sublattice_generators)
    matrix = tuple(tuple(g[i] for g in sublattice_generators) for i in range(ambient_rank))
    u, d, _ = smith_normal_form(matrix)
    # the Smith diagonal is a divisibility chain, so its zeros (the free factors) come last
    return invariant_quotient([d[i][i] if i < k else 0 for i in range(ambient_rank)], u)


def invariant_quotient(factors: list[int], rows) -> FiniteAbelianGroup:
    """The group with the given factors on the given projection rows, the factors 1 dropped."""
    kept = [i for i, f in enumerate(factors) if f != 1]
    return FiniteAbelianGroup(tuple(factors[i] for i in kept), tuple(rows[i] for i in kept))


def pi1_of_group(datum: RootDatum) -> FiniteAbelianGroup:
    """Fundamental group of the reductive group: cocharacters modulo all coroots."""
    return quotient_group(datum.rank, tuple(dict.fromkeys(datum.coroots)))


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
