"""Brute-force oracles and populations shared by more than one test file."""

from itertools import combinations, permutations
from operator import le

from matsuki.loopmatrix import LaurentPoly, lm_from_rows
from matsuki.realform import InvolutionSpec, catalog, catalog_names, validate_involution
from matsuki.rootdata import RootDatum, dot, gl_datum, height, identity_matrix, weyl_longest_element


def decomposes(datum, generators, target):
    """Bounded search for a non-negative integer combination of the
    generators equal to target."""
    if all(x == 0 for x in target):
        return True
    if not generators:
        return False
    g, rest = generators[0], generators[1:]
    cur = target
    for _ in range(height(datum, target) // height(datum, g) + 1):
        if decomposes(datum, rest, cur):
            return True
        cur = tuple(a - b for a, b in zip(cur, g))
    return False


def sweep_hasse(spec, elements):
    """Covers of dominance on exactly the given elements, by the class sweep:
    the elements are grouped by coroot class with their scaled simple-coroot
    coordinates, each class is taken in order of coordinate sum, and b covers
    a when it lies above a and above no cover of a found earlier.  Exact on
    any set, quadratic in a class."""
    den, rows, consistency = spec.datum.coroot_solver
    classes = {}
    for e in elements:
        coords = tuple(dot(row, e) for row in rows)
        classes.setdefault((*[c % den for c in coords], *[dot(f, e) for f in consistency]), {})[coords] = e
    edges = []
    for members in classes.values():
        ordered = sorted(members.items(), key=lambda m: sum(m[0]))
        for i, (lo, a) in enumerate(ordered):
            covers = []
            for hi, b in ordered[i + 1:]:
                if all(map(le, lo, hi)) and not any(all(map(le, c, hi)) for c in covers):
                    covers.append(hi)
                    edges.append((a, b))
    return tuple(sorted(edges))


# Cartan matrices a_ij = <alpha_i^vee, alpha_j>, the first simple roots long
CARTAN = {
    "B2": ((2, -1), (-2, 2)),
    "C2": ((2, -2), (-1, 2)),
    "G2": ((2, -1), (-3, 2)),
    "B3": ((2, -1, 0), (-1, 2, -1), (0, -2, 2)),
    "C3": ((2, -1, 0), (-1, 2, -2), (0, -1, 2)),
    "F4": ((2, -1, 0, 0), (-1, 2, -2, 0), (0, -1, 2, -1), (0, 0, -1, 2)),
}

# type A, left out of CARTAN: its diagram automorphism gives real forms that
# no Levi involution reaches; its data serve the split forms of PGL3 and PGL4
TYPE_A = {"A2": ((2, -1), (-1, 2)), "A3": ((2, -1, 0), (-1, 2, -1), (0, -1, 2))}

# real forms per type: B2 so(5), so(4,1), so(3,2); C2 sp(2), sp(1,1),
# sp(4,R); G2 compact and split; B3 so(7-q,q), q = 0..3; C3 sp(3), sp(2,1),
# sp(6,R); F4 compact, F4(-20) and split
REAL_FORM_COUNTS = {"B2": 3, "C2": 3, "G2": 2, "B3": 4, "C3": 3, "F4": 3}


def cartan_datum(name):
    """The root datum of a Cartan matrix on its coroot lattice, in
    simple-coroot coordinates: the simple coroots are the unit vectors and
    root j pairs with them by column j; the other roots and coroots are
    their images under the simple reflections, generated in pairs."""
    a = CARTAN[name] if name in CARTAN else TYPE_A[name]
    n = len(a)
    simple = [(tuple(a[k][j] for k in range(n)), identity_matrix(n)[j]) for j in range(n)]
    pairs, todo = list(simple), list(simple)
    while todo:
        root, coroot = todo.pop()
        for i, (alpha, unit) in enumerate(simple):
            image = (tuple(x - root[i] * y for x, y in zip(root, alpha)),
                     tuple(x - dot(alpha, coroot) * y for x, y in zip(coroot, unit)))
            if image not in pairs:
                pairs.append(image)
                todo.append(image)
    return RootDatum(rank=n, roots=tuple(r for r, _ in pairs), coroots=tuple(c for _, c in pairs),
                     simple_indices=tuple(range(n)), name=name)


def levi_involutions(name):
    """theta = w_M for every set M of simple roots of a Cartan type: the
    candidate involutions of a type without diagram automorphisms."""
    datum = cartan_datum(name)
    for k in range(datum.rank + 1):
        for subset in combinations(range(datum.rank), k):
            yield InvolutionSpec(datum, weyl_longest_element(datum, subset), name=f"{name}_{''.join(map(str, subset))}")


def gl_permutation_involutions(n):
    """sign * P for every involutive permutation matrix P of gl_n and sign +-1:
    the signed-permutation involutions that permute the coroots e_i - e_j."""
    for perm in permutations(range(n)):
        if all(perm[perm[i]] == i for i in range(n)):
            for sign in (1, -1):
                theta = tuple(tuple(sign * (j == perm[i]) for j in range(n)) for i in range(n))
                yield InvolutionSpec(gl_datum(n), theta, name=f"gl{n}_{'-' if sign < 0 else ''}{''.join(map(str, perm))}")


def real_form_specs():
    """The catalog entries, the admitted permutation involutions of gl2-gl5
    and the admitted Levi involutions of B2, C2, G2, B3 and C3."""
    candidates = [spec for n in range(2, 6) for spec in gl_permutation_involutions(n)]
    candidates += [spec for name in ("B2", "C2", "G2", "B3", "C3") for spec in levi_involutions(name)]
    return [catalog(name).spec for name in catalog_names()] + [s for s in candidates if not validate_involution(s)]


def group_class(group, vector):
    """The class of a vector in a ``FiniteAbelianGroup``: its projection, each
    coordinate reduced modulo its invariant factor (a free one kept as is)."""
    coords = (dot(row, vector) for row in group.projection)
    return tuple(c % f if f else c for c, f in zip(coords, group.invariant_factors))


def conjugate_poly(p):
    """Coefficient conjugation of a Laurent polynomial, Gaussian by Gaussian; t stays t."""
    return LaurentPoly({e: c.conjugate() for e, c in p.items()})


def apply_conjugation(g):
    """Entrywise coefficient conjugation of a Laurent loop."""
    return lm_from_rows(g.form, [[conjugate_poly(p) for p in row] for row in g.entries])
