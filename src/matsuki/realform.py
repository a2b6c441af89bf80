"""Real-form involutions on a root datum, at the level of the cocharacter lattice.

A real form enters every computation here only through the integer involution
it induces on the cocharacter lattice of a stable maximally split torus.  The
catalog ships that involution for the classical low-rank forms, each with its
normalization documented in the entry notes, so orbit indices never drift
between the library, the CLI and the matrix model.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from math import gcd
from operator import mul

from .errors import TheoremViolationError, ValidationError
from .record import Record
from .rootdata import (
    Coweight,
    FiniteAbelianGroup,
    IntMatrix,
    RootDatum,
    _require_rank,
    dot,
    gl_datum,
    identity_matrix,
    integer_solver,
    invariant_quotient,
    kernel_basis,
    mat_mul,
    mat_vec,
    monoid_order,
    pgl2_datum,
    positive_coroots,
    quotient_group,
    require_valid,
    simple_coroots,
    sl2_datum,
    sl2xsl2_datum,
    sl3_datum,
    sub_two_rho_vee,
    vec_add,
    vec_neg,
)


class InvolutionSpec(Record):
    """An integer involution of the cocharacter lattice encoding a real form."""

    datum: RootDatum
    theta: IntMatrix
    name: str = ""

    def apply(self, coweight: Coweight) -> Coweight:
        _require_rank(self.datum, (coweight,))
        return mat_vec(self.theta, coweight)

    def is_real(self, coweight: Coweight) -> bool:
        """Whether theta fixes the coweight: of length rank, every row of ``moving_rows`` pairs to 0 with it."""
        return len(coweight) == self.datum.rank and not any(dot(row, coweight) for row in self.moving_rows)

    @cached_property
    def moving_rows(self) -> IntMatrix:
        """The nonzero rows of theta - 1, each once up to sign: theta v = v exactly
        when every one pairs to 0 with v.  Empty for theta = 1."""
        n = self.datum.rank
        rows = (tuple(self.theta[i][j] - (i == j) for j in range(n)) for i in range(n))
        return tuple(dict.fromkeys(max(r, vec_neg(r)) for r in rows if any(r)))

    @cached_property
    def fixed_basis(self) -> tuple[Coweight, ...]:
        """Basis of the saturated sublattice of theta-fixed cocharacters.

        Computed as the integer kernel of ``moving_rows`` via Smith normal form;
        the kernel of an integer matrix is automatically saturated.  May be empty
        (anisotropic forms).  With no moving rows (theta = 1) it is the unit basis.
        """
        return kernel_basis(self.moving_rows, self.datum.rank)

    @cached_property
    def restricted_coroot_generators(self) -> tuple[Coweight, ...]:
        """Theta-fixed positive coroots and the nonzero sums beta + theta(beta), each once: the generators of
        the positive cone of the fixed lattice.  Built on first use, theta applied once per positive coroot."""
        gens: set[Coweight] = set()
        for beta in positive_coroots(self.datum):
            if (image := self.apply(beta)) == beta:
                gens.add(beta)
            if any(total := vec_add(beta, image)):
                gens.add(total)
        return tuple(sorted(gens))

    @cached_property
    def step_solver(self) -> tuple[int, IntMatrix, IntMatrix]:
        """``integer_solver`` of ``step_basis``, built on first use: ``coroot_solver`` if the basis is the
        simple coroots, as for theta = 1.  A dependent basis raises ``TheoremViolationError``."""
        basis, datum = step_basis(self), self.datum
        if basis == simple_coroots(datum):
            return datum.coroot_solver
        try:
            return integer_solver(basis, dim=datum.rank)
        except ValidationError:
            raise TheoremViolationError(f"the step basis {basis} of {self.name!r} is dependent;"
                                        " the step monoid is not free")

    @cached_property
    def step_order(self):
        """``monoid_order`` of ``step_solver``, compiled on first use: ``coroot_order`` if it is ``coroot_solver``."""
        solver = self.step_solver
        return self.datum.coroot_order if solver is self.datum.coroot_solver else monoid_order(solver, self.datum.rank)

    @cached_property
    def real_step_order(self):
        """``step_order`` on theta-fixed coweights, built on first use: ``step_order`` itself for theta = 1, else
        a closure that calls it (refusing a wrong length), then refuses lower, then upper, if theta moves it.
        The closure holds the rows of ``moving_rows``, not the spec, so the two form no reference cycle."""
        leq, moving = self.step_order, self.moving_rows
        if not moving:  # theta = 1
            return leq

        def real_leq(lower: Coweight, upper: Coweight) -> bool:
            result = leq(lower, upper)
            for v in (lower, upper):
                for row in moving:
                    if sum(map(mul, row, v)):
                        raise ValidationError(f"{v} is not theta-fixed")
            return result
        return real_leq

    @cached_property
    def image_lattice(self) -> tuple[tuple[Coweight, ...], FiniteAbelianGroup, tuple]:
        """The generators lambda + theta(lambda) of the loop image over a lattice
        basis, the quotient of the fixed sublattice by the preimage of that image,
        which the theta-fixed positive coroots and those sums generate, and its
        class test: pairs (row, m), a projection row and its factor, such that a
        theta-fixed coweight has class zero iff each row pairs with it to a
        multiple of m.  Built on first use.

        The other restricted coroot generators, the sums beta + theta(beta), are
        lambda + theta(lambda) at lambda = beta, so they are left out.  The fixed
        sublattice (rank k) is saturated, so a direct summand of Z^rank (Newman,
        Integral Matrices, 1972, ch. II): Z^rank modulo the preimage is the image
        quotient plus rank - k free factors, the last, which are dropped; the
        fixed coroots are those ``is_real`` accepts.  For theta = 1 (no moving
        rows) it is read off the datum (``_split_image_group``).  Each factor is
        finite, as 2*lambda = lambda + theta(lambda) is in the image: a free one
        left raises ``TheoremViolationError``."""
        rank = self.datum.rank
        sums = (vec_add(e, self.apply(e)) for e in identity_matrix(rank))
        image_gens = tuple(dict.fromkeys(v for v in sums if any(v)))
        if not self.moving_rows:
            group = _split_image_group(self.datum)
        else:
            fixed_coroots = sorted(b for b in positive_coroots(self.datum) if self.is_real(b))
            group = quotient_group(rank, (*fixed_coroots, *image_gens))
            kept = len(group.invariant_factors) - (rank - len(self.fixed_basis))
            group = FiniteAbelianGroup(group.invariant_factors[:kept], group.projection[:kept])
        if 0 in group.invariant_factors:
            raise TheoremViolationError(f"loop image of {self.name!r} has infinite index in the fixed sublattice")
        return image_gens, group, tuple(zip(group.projection, group.invariant_factors))


def _split_image_group(datum: RootDatum) -> FiniteAbelianGroup:
    """The image quotient for theta = 1, Lambda / (Q^vee + 2 Lambda): every coroot is fixed and
    lambda + theta(lambda) = 2 lambda.  With U C V = D the Smith normal form of the simple coroots
    (``RootDatum.coroot_smith_form``), row i of U maps Q^vee onto d_i Z (0 past the rank) and 2 Lambda
    onto 2 Z, so the factors are gcd(d_i, 2), then 2 on each free direction, on the rows of U."""
    u, d, _ = datum.coroot_smith_form
    k = len(datum.simple_indices)
    return invariant_quotient([gcd(d[i][i], 2) if i < k else 2 for i in range(datum.rank)], u)


MAX_RANK = 100  # theta squared takes rank**3 products, checked only up to this rank


def validate_involution(spec: InvolutionSpec) -> list[str]:
    """Return violated invariants of the involution; empty means valid.

    theta must be an involution and an automorphism of the root datum, and
    pass Araki's admissibility conditions (J. Math. Osaka City Univ. 13, 1962;
    Helgason, ch. X) for a real form: with M the Levi simple roots
    (``levi_simple_roots``) and w_M their longest element, varpi = w_M theta
    permutes the simple coroots, and <alpha, 2 rho_M^vee> is even at each
    simple root alpha outside M whose coroot varpi fixes.  Past theta^2 = 1,
    all three are read off the images (theta^T alpha_i, theta alpha_i^vee):

    - each is a listed pair: theta s_i theta, the reflection of that pair, is
      in W, so theta normalizes W and permutes its orbits, the pairs
      (``root_coefficients``);
    - theta^T alpha_i is a positive root for i outside M: the older test, that
      theta^T keep positive the positive roots not vanishing on the fixed
      lattice, on the simple roots.  theta^T negates the roots that vanish, so
      a positive theta^T alpha_i is no root of M: it has a positive
      coefficient outside M, and so has the image of each positive root
      outside M, which is positive.  Then varpi^T = theta^T w_M^T keeps the
      positive roots positive, as w_M^T swaps those of M with their negatives
      and keeps the others positive, and conversely;
    - for i outside M, varpi^-T alpha_i = w_M^T theta^T alpha_i is theta^T
      alpha_i modulo the roots of M, so varpi fixes alpha_i^vee exactly when
      theta^T alpha_i has the coefficients e_i outside M.
    """
    problems: list[str] = []
    datum, theta = spec.datum, spec.theta
    n = datum.rank
    if len(theta) != n or any(len(row) != n for row in theta):
        return [f"theta must be a {n}x{n} integer matrix"]
    if n > MAX_RANK:
        return [f"rank {n} is over the bound of {MAX_RANK}"]

    if mat_mul(theta, theta) != identity_matrix(n):
        problems.append("theta squared is not the identity")
    listed, transpose = {pair: m for m, pair in enumerate(zip(datum.roots, datum.coroots))}, tuple(zip(*theta))
    images = {i: (mat_vec(transpose, datum.roots[i]), mat_vec(theta, datum.coroots[i])) for i in datum.simple_indices}
    if pair := next((image for image in images.values() if image not in listed), None):
        problems.append(f"theta does not permute the root-coroot pairs (root {pair[0]} with coroot {pair[1]} missing)")
    if problems:
        return problems

    levi, coefficients = levi_simple_roots(spec), datum.root_coefficients
    outside = [(j, i, coefficients[listed[images[i]]]) for j, i in enumerate(datum.simple_indices) if i not in levi]
    for _, i, c in outside:
        if min(c) < 0:
            return [f"Araki's first condition fails: theta sends the simple root {datum.roots[i]} outside M"
                    f" to the negative root {images[i][0]}"]
    two_rho_levi = sub_two_rho_vee(datum, levi)
    for j, i, c in outside:
        if all(c[k] == (k == j) for k, _, _ in outside) and (p := dot(datum.roots[i], two_rho_levi)) % 2:
            return [f"Araki's second condition fails: w_M theta fixes the simple coroot {datum.coroots[i]} outside M,"
                    f" and <alpha_{i}, 2 rho_M^vee> = {p} is odd"]
    return []


def require_valid_involution(spec: InvolutionSpec) -> None:
    """Raise on an invalid involution of a datum the caller has validated."""
    problems = validate_involution(spec)
    if problems:
        raise ValidationError(f"invalid involution {spec.name!r}: " + "; ".join(problems))


def step_basis(spec: InvolutionSpec) -> tuple[Coweight, ...]:
    """The indecomposable restricted coroot generators, read off theta's images of the simple coroots:
    for each simple coroot beta, beta if theta fixes it, else beta + theta(beta), the zeros dropped and a
    repeat kept once.  The restricted root system has one simple coroot per orbit of varpi = w_M theta on
    the simple roots outside the Levi M (Araki, J. Math. Osaka City Univ. 13, 1962; Helgason, ch. X):
    theta negates exactly the coroots of M, whose sums are the zeros, the two coroots of one orbit give
    the same sum, and a coroot theta fixes is a generator, its sum its double.  The generators are
    independent (``InvolutionSpec.step_solver`` checks it); for theta = 1 they are the simple coroots."""
    sums = (b if (image := spec.apply(b)) == b else vec_add(b, image) for b in simple_coroots(spec.datum))
    return tuple(dict.fromkeys(v for v in sums if any(v)))


def levi_simple_roots(spec: InvolutionSpec) -> tuple[int, ...]:
    """Simple roots vanishing on every theta-fixed cocharacter: the Levi of the
    minimal parabolic, whose Weyl group acts trivially on the split part."""
    return tuple(
        i for i in spec.datum.simple_indices
        if all(dot(spec.datum.roots[i], b) == 0 for b in spec.fixed_basis)
    )


# ---------------------------------------------------------------------------
# catalog


class RealFormCatalogEntry(Record):
    name: str
    spec: InvolutionSpec
    expected_k_connected: bool
    notes: str

    @property
    def datum(self) -> RootDatum:
        return self.spec.datum

    @property
    def theta(self) -> IntMatrix:
        return self.spec.theta


def _entry(name, datum, theta, connected, notes) -> RealFormCatalogEntry:
    spec = InvolutionSpec(datum=datum, theta=theta, name=name)
    return RealFormCatalogEntry(name=name, spec=spec, expected_k_connected=connected, notes=notes)


@lru_cache(maxsize=None)
def _catalog() -> dict[str, RealFormCatalogEntry]:
    entries = [
        _entry(
            "sl2_split", sl2_datum(), identity_matrix(1), True,
            "SL2(R) inside SL2(C); lattice Z*alpha_vee with alpha_vee = (1); theta = id; "
            "symmetric subgroup SO2(C), connected.",
        ),
        _entry(
            "sl2_compact", sl2_datum(), ((-1,),), True,
            "SU(2) inside SL2(C); theta = -1, no split directions; symmetric subgroup is "
            "all of SL2(C).",
        ),
        _entry(
            "pgl2_so21", pgl2_datum(), identity_matrix(1), False,
            "SO(2,1) inside SO3(C), the adjoint form; lattice Z*omega with alpha_vee = 2*omega, "
            "theta = id; symmetric subgroup O2(C) is disconnected, so only even multiples of "
            "omega index orbits.  The classical n-th orbit corresponds to the coweight 2n*omega.",
        ),
        _entry(
            "sl2C_as_real", sl2xsl2_datum(), ((0, 1), (1, 0)), True,
            "SL2(C) viewed as a real group; complexification SL2 x SL2 with theta swapping the "
            "factors; symmetric subgroup a diagonal SL2(C), connected.",
        ),
        _entry(
            "sl3_split", sl3_datum(), identity_matrix(2), True,
            "SL3(R) inside SL3(C); simple-coroot coordinates on the coroot lattice; theta = id; "
            "symmetric subgroup SO3(C), connected.",
        ),
        _entry(
            "su11", sl2_datum(), identity_matrix(1), True,
            "SU(1,1) inside SL2(C) with the anti-diagonal Hermitian form; on the split diagonal "
            "torus theta acts trivially (SU(1,1) is isomorphic to SL2(R)); symmetric subgroup "
            "GL1(C), connected.",
        ),
        _entry(
            "su21", sl3_datum(), ((0, 1), (1, 0)), True,
            "SU(2,1) inside SL3(C) with the anti-diagonal Hermitian form; on the stable maximally "
            "split torus theta swaps the two simple coroots (simple-coroot coordinates); split "
            "sublattice spanned by (1,1); symmetric subgroup S(GL2 x GL1), connected.",
        ),
        _entry(
            "gl1_split", gl_datum(1), identity_matrix(1), False,
            "GL1(R) inside GL1(C); no roots; symmetric subgroup O1 = {±1} is disconnected, so "
            "only even cocharacters index orbits.",
        ),
        _entry(
            "gl2_split", gl_datum(2), identity_matrix(2), False,
            "GL2(R) inside GL2(C); standard coordinates e_1, e_2; theta = id; symmetric subgroup "
            "O2(C) is disconnected: orbit indices have even coordinate sum.",
        ),
        _entry(
            "gl3_split", gl_datum(3), identity_matrix(3), False,
            "GL3(R) inside GL3(C); standard coordinates; theta = id; symmetric subgroup O3(C) is "
            "disconnected: orbit indices have even coordinate sum.",
        ),
    ]
    return {e.name: e for e in entries}


def catalog_names() -> tuple[str, ...]:
    return tuple(_catalog())


@lru_cache(maxsize=None)
def catalog(name: str) -> RealFormCatalogEntry:
    """Look up a shipped real form, validated on its first lookup; unknown
    names raise with the available list."""
    table = _catalog()
    if name not in table:
        raise ValidationError(f"unknown catalog entry {name!r}; available: {', '.join(table)}")
    require_valid(table[name].datum)
    require_valid_involution(table[name].spec)
    return table[name]


def is_catalog_spec(spec: InvolutionSpec) -> bool:
    """Structural match against the shipped entry of the same name; the datum's
    own name is ignored so exported files still count as catalog data."""
    known = _catalog().get(spec.name)
    if known is None:
        return False
    a, b = known.datum, spec.datum
    return (known.theta, a.rank, a.roots, a.coroots, a.simple_indices) == (
        spec.theta, b.rank, b.roots, b.coroots, b.simple_indices)
