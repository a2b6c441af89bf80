"""Checks that do not use the result being checked.

The coroot dominance order is decided here by exact elimination against the
simple coroots of the root datum, not through ``matsuki.rootdata``; Hasse
diagrams are checked by transitive closure against that order, and type-A
invariants by partial sums.
"""

from __future__ import annotations

from fractions import Fraction


def dominant_sorted(lam) -> tuple[int, ...]:
    return tuple(sorted(lam, reverse=True))


def type_a_leq(lower, upper) -> bool:
    """Dominance of sorted type-A coweights: equal totals, dominated partial sums."""
    if len(lower) != len(upper) or sum(lower) != sum(upper):
        return False
    low = up = 0
    for a, b in zip(lower, upper):
        low, up = low + a, up + b
        if low > up:
            return False
    return True


def solve(columns, target) -> list[Fraction] | None:
    """Coefficients c with sum(c_j * columns[j]) == target for independent
    columns, or None when the target is outside their span."""
    m = len(columns)
    rows = [[Fraction(col[i]) for col in columns] + [Fraction(target[i])] for i in range(len(target))]
    pivots = []
    for c in range(m):
        p = next((i for i in range(len(pivots), len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        r = len(pivots)
        rows[r], rows[p] = rows[p], rows[r]
        lead = rows[r][c]
        rows[r] = [x / lead for x in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[c]:
                factor = row[c]
                rows[i] = [x - factor * y for x, y in zip(row, rows[r])]
        pivots.append(c)
    if any(row[m] for row in rows[len(pivots):]):
        return None
    coeffs = [Fraction(0)] * m
    for r, c in enumerate(pivots):
        coeffs[c] = rows[r][m]
    return coeffs


class Lattice:
    """Oracle facts about one root datum and lattice involution."""

    def __init__(self, datum, theta):
        self.datum = datum
        self.theta = theta
        self.simple_coroots = [datum.coroots[i] for i in datum.simple_indices]
        self._leq: dict[tuple[int, ...], bool] = {}

    def leq(self, lower, upper) -> bool:
        diff = tuple(u - l for l, u in zip(lower, upper))
        known = self._leq.get(diff)
        if known is None:
            coeffs = solve(self.simple_coroots, diff)
            known = coeffs is not None and all(c.denominator == 1 and c >= 0 for c in coeffs)
            self._leq[diff] = known
        return known

    def pairing(self, root, lam) -> int:
        return sum(a * b for a, b in zip(root, lam))

    def is_orbit_shaped(self, lam) -> bool:
        """Dominant and fixed by theta (membership in the image sub-semigroup
        is not re-derived here)."""
        fixed = tuple(sum(t * x for t, x in zip(row, lam)) for row in self.theta) == tuple(lam)
        return fixed and all(self.pairing(self.datum.roots[i], lam) >= 0 for i in self.datum.simple_indices)

    def core(self, lam) -> tuple[tuple[int, ...], int]:
        """Parabolic simple roots and flag dimension at a dominant coweight:
        the roots pairing positively with it are exactly the positive roots
        that do not vanish on it."""
        parabolic = tuple(i for i in self.datum.simple_indices if self.pairing(self.datum.roots[i], lam) == 0)
        return parabolic, sum(1 for root in self.datum.roots if self.pairing(root, lam) > 0)

    def components(self, elements) -> int:
        """Connected components of the comparability graph."""
        parent = list(range(len(elements)))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for i, a in enumerate(elements):
            for j in range(i + 1, len(elements)):
                b = elements[j]
                if self.leq(a, b) or self.leq(b, a):
                    parent[find(i)] = find(j)
        return len({find(i) for i in range(len(elements))})


class Lattices(dict):
    """``Lattice`` oracles of the catalog entries by name, built on first use."""

    def __missing__(self, name: str) -> Lattice:
        from matsuki.realform import catalog

        spec = catalog(name).spec
        lattice = self[name] = Lattice(spec.datum, spec.theta)
        return lattice


def closure_mismatch(elements, edges, leq):
    """First pair (a, b) where reachability along the edges disagrees with
    ``leq(a, b)``, or None when the edges' reflexive-transitive closure is the order."""
    up = {e: [] for e in elements}
    for a, b in edges:
        if a not in up or b not in up:
            return a, b
        up[a].append(b)
    for a in elements:
        reach, todo = {a}, [a]
        while todo:
            for b in up[todo.pop()]:
                if b not in reach:
                    reach.add(b)
                    todo.append(b)
        for b in elements:
            if (b in reach) != leq(a, b):
                return a, b
    return None


def fmt_coweight(vec) -> str:
    return "(" + ",".join(str(x) for x in vec) + ")"


def parse_coweight(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not (text.startswith("(") and text.endswith(")")):
        raise ValueError(f"not a coweight: {text!r}")
    return tuple(int(x) for x in text[1:-1].split(",")) if len(text) > 2 else ()


def poset_report(slice_) -> str:
    """The ``matsuki poset`` report of a catalog slice, as the golden files hold it."""
    lines = [
        f"spec: {slice_.spec_name}",
        f"height: {slice_.height_bound}",
        f"order: {slice_.order}",
        f"image_index: {slice_.image_index}",
        f"components: {slice_.component_count}",
        f"elements: {len(slice_.elements)}",
        *(f"element: {fmt_coweight(lam)}" for lam in slice_.elements),
        f"edges: {len(slice_.hasse_edges)}",
        *(f"edge: {fmt_coweight(a)} -> {fmt_coweight(b)}" for a, b in slice_.hasse_edges),
    ]
    return "\n".join(lines) + "\n"
