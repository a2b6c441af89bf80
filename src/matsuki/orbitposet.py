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
from operator import index, le, mul

from .errors import ValidationError
from .fundgroup import image_index, in_image_semigroup
from .realform import InvolutionSpec
from .record import Record
from .rootdata import Coweight, dominance_leq, dot, identity_matrix, simple_roots, vec_neg


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
            if (count := count + len(entry[1])) > CANDIDATE_BUDGET:
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
    if not in_image_semigroup(spec, coweight):
        raise ValidationError(f"{coweight} is not in the image sub-semigroup")
    datum = spec.datum
    pairings = {i: dot(datum.roots[i], coweight) for i in datum.positive_root_indices}
    parabolic = tuple(i for i in datum.simple_indices if pairings[i] == 0)
    dim = sum(1 for p in pairings.values() if p > 0)
    return CoreData(coweight=coweight, parabolic_simple_roots=parabolic, flag_dimension=dim)


def matsuki_dual(spec: InvolutionSpec, coweight: Coweight) -> tuple[Coweight, CoreData]:
    """The dual orbit carries the same index; the meeting locus is the core.
    Order reversal is the law relating k_leq and r_leq; core_data validates
    the index."""
    return coweight, core_data(spec, coweight)


def real_step_leq(spec: InvolutionSpec, lower: Coweight, upper: Coweight) -> bool:
    """True when upper - lower is a non-negative integer combination of the
    restricted coroot generators, decided by the compiled order of their
    indecomposables; both arguments must be real coweights."""
    leq = spec.step_order(lower, upper)  # checks both lengths first
    if spec.fixed_solver[2]:  # theta is not the identity
        for v in (lower, upper):
            if not spec.is_real(v):
                raise ValidationError(f"{v} is not theta-fixed")
    return leq


def _coroot_classes(spec: InvolutionSpec, elements: tuple[Coweight, ...]) -> list[dict[Coweight, Coweight]]:
    """The distinct elements grouped by coroot class, each class a dict from
    scaled coordinates to element.

    Coweights that differ by coroots share their consistency-row pairings and
    their ``coroot_solver`` coordinates modulo ``den``.  Within a class the
    coordinates are den times the simple-coroot coefficients up to a common
    shift, so they determine the element, a <= b in dominance is a
    componentwise comparison of coordinates, and the coordinate sum (the
    height up to a constant) grows strictly along the order.
    """
    rank = spec.datum.rank
    den, rows, consistency = spec.datum.coroot_solver
    forms, k = rows + consistency, len(rows)
    classes: dict[tuple, dict[Coweight, Coweight]] = {}
    for e in elements:
        if len(e) != rank:
            raise ValidationError(f"{e} does not have length rank={rank}")
        values = tuple([sum(map(mul, f, e)) for f in forms])
        coords = values[:k]
        classes.setdefault((*[c % den for c in coords], *values[k:]), {})[coords] = e
    return list(classes.values())


def _hasse_edges(classes) -> list[tuple[Coweight, Coweight]]:
    """The covers within each class of ``_coroot_classes``, unsorted: each class
    is taken in order of coordinate sum, and b covers a when it lies above a
    and above no cover of a found earlier."""
    edges = []
    for members in classes:
        ordered = sorted(members.items(), key=lambda m: sum(m[0]))
        for i, (lo, a) in enumerate(ordered):
            covers = []
            for hi, b in ordered[i + 1 :]:
                if all(map(le, lo, hi)) and not any(all(map(le, c, hi)) for c in covers):
                    covers.append(hi)
                    edges.append((a, b))
    return edges


def primitive_relations(spec: InvolutionSpec, elements: tuple[Coweight, ...]) -> tuple[tuple[Coweight, Coweight], ...]:
    """Hasse edges of the dominance order restricted to the given coweights.

    Only coweights in one coroot class are comparable (``_coroot_classes``),
    and the covers are found within each class (``_hasse_edges``).  No
    lattice point outside the elements is visited.

    The edges are the covers in the whole orbit-index sub-semigroup whenever
    the elements are convex: every orbit index between two of them is one of
    them.  Height slices from ``enumerate_orbits`` are convex.  Every simple
    coroot has height 2, so any c between a and b has a height between
    theirs, and the enumeration's coordinate box never cuts semisimple data;
    for ``gl_n``, c_1 <= b_1, c_n >= b_n and dominance keep c in the box.
    """
    return tuple(sorted(_hasse_edges(_coroot_classes(spec, elements))))


def _components(classes) -> int:
    """Connected components over the classes of ``_coroot_classes``: a class
    holding the componentwise minimum of its coordinates has a member below
    all the others and is one component; only a class without one is
    resolved pair by pair, by comparing coordinates."""
    count = 0
    for members in classes:
        if tuple(map(min, zip(*members))) in members:
            count += 1
            continue
        todo = set(members)
        while todo:
            count += 1
            stack = [todo.pop()]
            while stack:
                a = stack.pop()
                linked = {b for b in todo if all(map(le, a, b)) or all(map(le, b, a))}
                todo -= linked
                stack.extend(linked)
    return count


def component_count(spec: InvolutionSpec, elements: tuple[Coweight, ...]) -> int:
    """Connected components of the comparability graph on the given indices;
    comparable coweights share their coroot class (``_components``)."""
    return _components(_coroot_classes(spec, elements))


def build_poset_slice(spec: InvolutionSpec, height_bound: int, order: str = "K") -> PosetSlice:
    """Assemble a slice report for one of the two orders; edges point upward
    in the chosen order."""
    if order not in ("K", "R"):
        raise ValidationError("order must be 'K' or 'R'")
    elements = enumerate_orbits(spec, height_bound)
    classes = _coroot_classes(spec, elements)  # once, for the edges and the components
    return PosetSlice(
        spec_name=spec.name,
        height_bound=height_bound,
        order=order,
        elements=elements,
        hasse_edges=tuple(sorted(edge if order == "K" else edge[::-1] for edge in _hasse_edges(classes))),
        component_count=_components(classes),
        image_index=image_index(spec),
    )
