"""The two orbit posets, their order-reversing duality, and core data.

Orbit indices are dominant theta-fixed coweights whose loop class lies in the
image sub-semigroup.  The symmetric-subgroup order is coroot dominance; the
real order is the reversed step order of the restricted coroot generators,
which reverses dominance on orbit indices; dual orbits share the same index
and meet along a finite-dimensional flag variety described by ``CoreData``.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import repeat
from math import gcd, lcm
from operator import add, index, le, mul

from .errors import ValidationError
from .fundgroup import _member_pairings, image_index
from .realform import InvolutionSpec
from .record import Record
from .rootdata import Coweight, _require_rank, dominance_leq, dot, identity_matrix, simple_roots, vec_neg


class CoreData(Record):
    """Flag-variety data of the locus where dual orbits meet."""

    coweight: Coweight
    parabolic_simple_roots: tuple[int, ...]
    flag_dimension: int


class PosetSlice(Record):
    """A height-bounded slice of one of the two orbit posets."""

    spec_name: str
    height_bound: int
    order: str  # "K" or "R"
    elements: tuple[Coweight, ...]
    hasse_edges: tuple[tuple[Coweight, Coweight], ...]
    component_count: int
    image_index: int


CANDIDATE_BUDGET = 10**6


def _extend(rows, walk):
    """The walk's next level: each prefix (*q, c), c in r, of the entries (q, r)
    of the level before, with the range of its next coefficient x, the integers
    with a . (*q, c, x) + offset >= 0 on every row (a, offset); the rows must
    bound x on both sides.  A row's value is computed once per q and moved by
    c.  Rows free of x hold on every prefix, as ``_eliminate`` keeps them."""
    k = len(rows[0][0]) - 2
    lower = [(a, offset, a[k], a[k + 1]) for a, offset in rows if a[k + 1] > 0]
    upper = [(a, offset, a[k], -a[k + 1]) for a, offset in rows if a[k + 1] < 0]
    for q, r in walk:  # a . q reads the first k entries of a
        lo = [(sum(map(mul, a, q), offset), t, s) for a, offset, t, s in lower]
        hi = [(sum(map(mul, a, q), offset), t, s) for a, offset, t, s in upper]
        for c in r:
            yield (*q, c), range(max([-((v + c * t) // s) for v, t, s in lo]),
                                 min([(v + c * t) // s for v, t, s in hi]) + 1)


def _eliminate(rows, j: int) -> list:
    """Integer Fourier-Motzkin elimination of c_j from rows (a, offset), each
    a . c + offset >= 0 on c_0..c_j: each combined row is divided by the gcd
    of its coefficients, its offset rounded down (Chvatal-Gomory), and the
    least offset kept per direction; rows with no coefficient left hold at
    zero, a solution, and are dropped."""
    combined = [(a[:j], offset) for a, offset in rows if not a[j]]
    combined += [(tuple(-n[j] * x + p[j] * y for x, y in zip(p, n[:j])), -n[j] * p_off + p[j] * n_off)
                 for p, p_off in rows if p[j] > 0 for n, n_off in rows if n[j] < 0]
    kept: dict[tuple[int, ...], int] = {}
    for a, offset in combined:
        if g := gcd(*a):
            a, offset = tuple(x // g for x in a), offset // g
            kept[a] = min(offset, kept.get(a, offset))
    return list(kept.items())


@lru_cache(maxsize=1, typed=True)
def enumerate_orbits(spec: InvolutionSpec, height_bound: int) -> tuple[Coweight, ...]:
    """All orbit indices with height at most the bound, sorted lexicographically.

    Candidates are combinations of the theta-fixed basis, so they are real by
    construction.  Dominance at every simple root, 0 <= height <= H and the
    box -H <= v_i <= H are rows a . c + offset >= 0 in the coefficients c;
    the box rows keep gl_n slices finite and cut nothing from semisimple
    ones.  An integer Fourier-Motzkin projection (Schrijver, Theory of Linear
    and Integer Programming, 1986, section 12.2) eliminates the coefficients
    from the last down (``_eliminate``).  No integer solution violates a
    projected row, so the walk, which extends each prefix through the next
    coefficient's range, meets every prefix of the output and few others.
    Each range comes from the rows alone: the box rows bound every lattice
    coordinate, so each system bounds the next coefficient on both sides, and
    0 is always a solution.  The last range is exact.  Along it, the class
    test of the image quotient (``InvolutionSpec.image_lattice``) is one
    congruence r + c*step = 0 (mod m) per class row, true on one residue class
    modulo m // gcd(step, m) or on none; so all hold on one class modulo their
    lcm, ``period`` (at most 2: 2 * lambda is in the image), or on none.  Per
    prefix, the range's first ``period`` values are tested, and the indices
    from the least solution on, ``period`` apart, are built by one arithmetic
    progression per coordinate.

    One budget bounds the walk: each level's prefixes are generated from the
    ranges of the level before, each range's length is added to the level's
    count as it is computed, and the bound is refused once a count passes
    ``CANDIDATE_BUDGET`` (10**6).  So a refusal builds no index, holds fewer
    prefixes than that and computes at most 1 + (levels - 1) *
    ``CANDIDATE_BUDGET`` ranges, and no prefix holds more than its range.  The
    last level's candidates are about twice the output on large slices
    (gl2_split at H = 400: 241,001 for 120,801).

    The cache holds the last slice, the one a reslice or a second suite on
    the same height asks for; a slice can take tens of megabytes.  Its key
    carries the bound's type, so 4.0 never finds the entry of 4 and is
    refused by the integer check like any other non-integral bound.
    """
    try:
        height_bound = index(height_bound)
    except TypeError:
        raise ValidationError(f"height bound must be an integer, got {height_bound!r}") from None
    if height_bound < 0:
        raise ValidationError("height bound must be non-negative")
    datum = spec.datum
    basis = spec.fixed_basis
    if not basis:
        return ((0,) * datum.rank,)
    unit, rho2 = identity_matrix(datum.rank), datum.two_rho
    # (f, offset): the constraint f(v) + offset >= 0
    constraints = [(f, 0) for f in (*simple_roots(datum), rho2)] + [(e, height_bound) for e in unit]
    constraints += [(vec_neg(f), height_bound) for f in (*unit, rho2)]
    systems = [[(tuple(dot(f, b) for b in basis), offset) for f, offset in constraints]]
    for j in range(len(basis) - 1, 0, -1):
        systems.insert(0, _eliminate(systems[0], j))
    first = systems[0]  # rows ((s,), o): the first range comes from the offsets alone
    walk = [((), range(max(-(o // s) for (s,), o in first if s > 0), min(o // -s for (s,), o in first if s < 0) + 1))]
    for level, rows in enumerate(systems, 1):
        entries, walk, count = walk if level == 1 else _extend(rows, walk), [], 0
        for entry in entries:
            walk.append(entry)
            if (count := count + max(entry[1].stop - entry[1].start, 0)) > CANDIDATE_BUDGET:
                raise ValidationError(f"height bound {height_bound} leaves over {CANDIDATE_BUDGET} candidates"
                                      f" for coefficient {level} of {len(systems)}")
    class_rows = [([dot(row, b) for b in basis], m) for row, m in spec.image_lattice[2]]
    period = lcm(*(m // gcd(row[-1], m) for row, m in class_rows))  # 1 with no class rows
    *lead, last = basis
    columns = [tuple(b[i] for b in lead) for i in range(datum.rank)]
    found = []
    for p, last_range in walk:
        classes = [(sum(map(mul, row, p)), row[-1], m) for row, m in class_rows]
        for c in last_range[:period]:
            if not any((r + c * step) % m for r, step, m in classes):
                n = len(range(c, last_range.stop, period))
                starts = [sum(map(mul, col, p), c * x) for col, x in zip(columns, last)]
                found += zip(*[range(b, b + n * d, d) if (d := period * x) else repeat(b) for b, x in zip(starts, last)])
                break
    return tuple(sorted(found))


def k_leq(spec: InvolutionSpec, lower: Coweight, upper: Coweight) -> bool:
    """Order of the symmetric-subgroup orbit poset: coroot dominance (``dominance_leq``)."""
    return spec.datum.coroot_order(lower, upper)


def r_leq(spec: InvolutionSpec, lower: Coweight, upper: Coweight) -> bool:
    """Order of the real orbit poset: the reversed step order, lower - upper a
    non-negative integer combination of the indecomposable restricted coroot
    generators.  It agrees with reversed dominance on orbit indices, which is
    the order-reversal law, not its definition."""
    return spec.step_order(upper, lower)


def core_data(spec: InvolutionSpec, coweight: Coweight) -> CoreData:
    """Parabolic type and flag dimension of the core at a given index."""
    pairings = _member_pairings(spec, coweight)
    if pairings is None:
        raise ValidationError(f"{coweight} is not in the image sub-semigroup")
    parabolic = tuple([i for i, p in zip(spec.datum.simple_indices, pairings) if not p])
    return CoreData(coweight, parabolic, len(pairings) - pairings.count(0))  # dominant: no pairing is negative


def matsuki_dual(spec: InvolutionSpec, coweight: Coweight) -> tuple[Coweight, CoreData]:
    """The dual orbit carries the same index; the meeting locus is the core.
    Order reversal is the law relating k_leq and r_leq; core_data validates
    the index."""
    return coweight, core_data(spec, coweight)


def real_step_leq(spec: InvolutionSpec, lower: Coweight, upper: Coweight) -> bool:
    """True when upper - lower is a non-negative integer combination of the restricted coroot
    generators; both must be real coweights (``InvolutionSpec.real_step_order``)."""
    return spec.real_step_order(lower, upper)


def primitive_relations(spec: InvolutionSpec, elements: tuple[Coweight, ...]) -> tuple[tuple[Coweight, Coweight], ...]:
    """Hasse edges of the dominance order on a convex set of orbit indices
    (every orbit index between two of them is one of them), such as a
    down-set and so a slice of ``enumerate_orbits``.

    b covers a exactly when b = a + d with d a restricted coroot generator
    (``InvolutionSpec.restricted_coroot_generators``), b is an element, and
    no element a + d' has d' below d in dominance.  The generators lie in
    the coroot lattice, where dominance compares ``coroot_solver``
    coordinates componentwise, so they are ordered once and no order is
    compiled.

    The argument: on a convex set the covers are those of the whole
    sub-semigroup; on theta-fixed coweights dominance is the step order of
    the generators (the step-order law), so the orbit indices of one coroot
    class are dominant weights of the restricted root system in one lattice
    coset, where a cover differs by a positive root (Stembridge, "The partial
    order of dominant weights", Adv. Math. 136, 1998); and an element a + d'
    with d' below d lies strictly between a and a + d.  That Stembridge's
    theorem carries over to restricted root systems cut to the image lattice
    (su21's is of type BC1) rests on the exhaustive tests, not on a proof:
    the rule gives the class sweep's covers on the catalog and on the real
    forms of gl2-gl5, B2, C2, G2, B3 and C3.  On a set that is not convex it
    can miss an edge.

    Height slices are down-sets (every orbit index below one of them is one
    of them), so convex: every simple coroot has height 2, so any c below b
    has a height at most b's, and the enumeration's coordinate box never cuts
    semisimple data; for ``gl_n``, c_1 <= b_1, c_n >= b_n and dominance keep
    c in the box.
    """
    _require_rank(spec.datum, elements)
    present = set(elements)
    steps = spec.restricted_coroot_generators
    coords = [[dot(row, d) for row in spec.datum.coroot_solver[1]] for d in steps]
    below = [[j for j, c in enumerate(coords) if c != cd and all(map(le, c, cd))] for cd in coords]
    edges = []
    for a in present:
        found = [b if (b := tuple(map(add, a, d))) in present else None for d in steps]
        edges += [(a, b) for b, under in zip(found, below) if b and not any([found[j] for j in under])]
    return tuple(sorted(edges))


def component_count(spec: InvolutionSpec, elements: tuple[Coweight, ...]) -> int:
    """Connected components of the comparability graph on a down-set of
    orbit indices, such as a slice (see ``primitive_relations``): the number
    of coroot classes among them.

    Comparable coweights differ by coroots, so they share their class key:
    their ``coroot_solver`` solve values modulo ``den`` and their
    consistency-row pairings.  A class of a down-set is one component, as it
    holds the least member of its whole class, which lies below all the
    others: the dominant weights of a coset have a least one (Stembridge
    1998).  That this least member is an orbit index, for restricted root
    systems cut to the image lattice, rests on the exhaustive tests, as in
    ``primitive_relations``.  A convex set is not enough: two incomparable
    members of one class with nothing between them are convex, yet two
    components.  Solve values modulo den = 1 are all 0, so the key keeps the
    solve rows only when den > 1; with no row left there is one class, or
    none on no elements.
    """
    _require_rank(spec.datum, elements)
    den, rows, consistency = spec.datum.coroot_solver
    rows = rows if den > 1 else ()
    if not rows and not consistency:
        return min(len(elements), 1)
    return len({(*[sum(map(mul, f, e)) % den for f in rows], *[sum(map(mul, f, e)) for f in consistency])
                for e in elements})


def build_poset_slice(spec: InvolutionSpec, height_bound: int, order: str = "K") -> PosetSlice:
    """Assemble a slice report for one of the two orders; edges point upward
    in the chosen order."""
    if order not in ("K", "R"):
        raise ValidationError("order must be 'K' or 'R'")
    elements = enumerate_orbits(spec, height_bound)
    edges = primitive_relations(spec, elements)
    return PosetSlice(
        spec_name=spec.name,
        height_bound=height_bound,
        order=order,
        elements=elements,
        hasse_edges=edges if order == "K" else tuple(sorted(edge[::-1] for edge in edges)),
        component_count=component_count(spec, elements),
        image_index=image_index(spec),
    )
