"""Brute-force oracles and populations shared by more than one test file."""

import random
from fractions import Fraction
from itertools import combinations, permutations
from operator import le

from matsuki.errors import ValidationError
from matsuki.loopmatrix import Gaussian, LaurentPoly, _turn, lm_from_rows, mat_inverse, transpose
from matsuki.realform import (
    MAX_RANK,
    InvolutionSpec,
    catalog,
    catalog_names,
    levi_simple_roots,
    validate_involution,
)
from matsuki.rootdata import (
    RootDatum,
    _require_rank,
    column_matrix,
    dot,
    gl_datum,
    height,
    identity_matrix,
    integer_solver,
    is_dominant,
    mat_mul,
    mat_vec,
    positive_coroots,
    simple_coroots,
    simple_roots,
    sub_two_rho_vee,
    vec_add,
    vec_scale,
)


def vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def reflect(datum, simple_index, coweight):
    """Simple reflection on cocharacters: x -> x - <alpha, x> alpha_vee, x itself when the pairing is 0."""
    pairing = dot(datum.roots[simple_index], coweight)
    if not pairing:
        return coweight
    return tuple(x - pairing * a for x, a in zip(coweight, datum.coroots[simple_index]))


def reflection_matrix(datum, simple_index):
    """The matrix of a simple reflection on the cocharacter lattice, its columns the reflected unit vectors."""
    return column_matrix(tuple(reflect(datum, simple_index, e) for e in identity_matrix(datum.rank)), datum.rank)


def weyl_longest_element(datum, subset):
    """Matrix of the longest element of the parabolic Weyl subgroup.

    Drives a regular dominant vector of the sub-system (``sub_two_rho_vee``)
    to the anti-dominant chamber; the product of the reflections, kept as
    its columns and reflecting each in turn, is the longest element.
    """
    subset = tuple(sorted(subset))
    if any(i not in datum.simple_indices for i in subset):
        raise ValidationError(f"subset {subset} is not a set of simple indices")
    x, columns = sub_two_rho_vee(datum, subset), identity_matrix(datum.rank)
    while True:
        pos = next((i for i in subset if dot(datum.roots[i], x) > 0), None)
        if pos is None:
            return column_matrix(columns, datum.rank)
        x = reflect(datum, pos, x)
        columns = tuple(reflect(datum, pos, c) for c in columns)


def reference_validate_involution(spec):
    """The validator that the read-off of theta's images of the simple pairs
    replaced: theta squared, every coroot's image looked up, and Araki's
    conditions on varpi = w_M theta, built as a matrix.  It admits a theta
    that permutes the coroots but not the roots."""
    problems = []
    datum = spec.datum
    n = datum.rank
    if len(spec.theta) != n or any(len(row) != n for row in spec.theta):
        return [f"theta must be a {n}x{n} integer matrix"]
    if n > MAX_RANK:
        return [f"rank {n} is over the bound of {MAX_RANK}"]

    if mat_mul(spec.theta, spec.theta) != identity_matrix(n):
        problems.append("theta squared is not the identity")

    coroot_set = set(datum.coroots)
    for beta in datum.coroots:
        if spec.apply(beta) not in coroot_set:
            problems.append(f"theta does not permute the coroot set (image of {beta} missing)")
            break

    if problems:
        return problems

    levi = levi_simple_roots(spec)
    varpi = mat_mul(weyl_longest_element(datum, levi), spec.theta)
    simple = {datum.coroots[i] for i in datum.simple_indices}
    images = {i: mat_vec(varpi, datum.coroots[i]) for i in datum.simple_indices}
    for i, image in images.items():
        if image not in simple:
            return [f"Araki's first condition fails: w_M theta sends the simple coroot {datum.coroots[i]} to {image},"
                    " which is not simple"]
    two_rho_levi = sub_two_rho_vee(datum, levi)
    for i, image in images.items():
        if image == datum.coroots[i] and i not in levi and dot(datum.roots[i], two_rho_levi) % 2:
            return [f"Araki's second condition fails: w_M theta fixes the simple coroot {image} outside M,"
                    f" and <alpha_{i}, 2 rho_M^vee> = {dot(datum.roots[i], two_rho_levi)} is odd"]
    return []


def free_monoid_leq(solver, lower, upper):
    """The order of the free monoid on the columns of an ``integer_solver``:
    upper - lower pairs to 0 with every consistency row and to a non-negative
    multiple of den with every solve row.  The reference for ``monoid_order``,
    which compiles the same test per solver."""
    den, rows, consistency = solver
    diff = vec_sub(upper, lower)
    if any(dot(row, diff) for row in consistency):
        return False
    return all(c >= 0 and c % den == 0 for c in mat_vec(rows, diff))


def reference_positive_root_indices(datum):
    """Indices of the roots that are non-negative integer combinations of the
    simple roots, by ``free_monoid_leq`` on their ``integer_solver``; refuses
    dependent simple roots."""
    try:
        solver = integer_solver(simple_roots(datum), dim=datum.rank)
    except ValidationError:
        raise ValidationError("simple roots are linearly dependent")
    zero = (0,) * datum.rank
    return tuple(i for i, root in enumerate(datum.roots) if free_monoid_leq(solver, zero, root))


def reference_validate_root_datum(datum):
    """The validator that the W-orbit walk of the simple (root, coroot) pairs
    replaced, one mechanism per axiom: the simple pairings, closure of the
    coroot set under the simple reflections, span and sign of each root by
    the simple roots' ``integer_solver``, reducedness and a W-orbit walk over
    the coroots.  It admits data whose roots and coroots are paired wrongly."""
    problems = []
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
            continue
        beta = next((b for b in datum.coroots
                     if dot(datum.roots[i], b) and reflect(datum, i, b) not in coroot_set), None)
        if beta is not None:
            reflection_problems.append(
                f"reflection at simple root {i} does not permute the coroot set (image of {beta} missing)"
            )
    problems += reflection_problems

    try:
        solver = integer_solver(simple_roots(datum), dim=datum.rank)
    except ValidationError:
        return problems + ["simple roots are linearly dependent"]
    zero, positive = (0,) * datum.rank, set(reference_positive_root_indices(datum))
    for i, root in enumerate(datum.roots):
        if any(dot(row, root) for row in solver[2]):
            problems.append(f"root {root} lies outside the span of the simple roots")
        elif i not in positive and not free_monoid_leq(solver, root, zero):
            problems.append(f"root {root} is not a signed non-negative integer combination of simples")
    roots = set(datum.roots)
    double = next((r for r in datum.roots if vec_scale(2, r) in roots), None)
    if double is not None and not problems:
        problems.append(f"root {double} and its double are both roots: the root system is not reduced")
    if not problems:
        reached, frontier = set(), list(simple_coroots(datum))
        while frontier:
            if (c := frontier.pop()) not in reached:
                reached.add(c)
                frontier += [reflect(datum, i, c) for i in datum.simple_indices if dot(datum.roots[i], c)]
        problems += [f"coroot {c} is not W-conjugate to a simple coroot" for c in datum.coroots if c not in reached][:1]
    return problems


def pairs_w_stable(datum):
    """Whether every simple reflection maps each listed (root, coroot) pair,
    (a, b) to (a - <a, alpha^vee> alpha, b - <alpha, b> alpha^vee), to a
    listed pair: checked pair by pair, with no walk."""
    pairs = set(zip(datum.roots, datum.coroots))
    for i in datum.simple_indices:
        alpha, alpha_vee = datum.roots[i], datum.coroots[i]
        for a, b in pairs:
            image = (vec_sub(a, vec_scale(dot(a, alpha_vee), alpha)), vec_sub(b, vec_scale(dot(alpha, b), alpha_vee)))
            if image not in pairs:
                return False
    return True


def dominant_representative(datum, coweight):
    """Dominant member of the Weyl orbit, with the reflection word that reaches it.

    The word lists simple root indices in application order, so the result is
    s_{w[-1]} ... s_{w[0]} applied to the input.  Each step strictly increases
    the height pairing, which bounds the loop by the (finite) orbit.
    """
    _require_rank(datum, (coweight,))
    x = coweight
    word = []
    while True:
        neg = next((i for i in datum.simple_indices if dot(datum.roots[i], x) < 0), None)
        if neg is None:
            return x, tuple(word)
        x = reflect(datum, neg, x)
        word.append(neg)


def levi_longest_element(spec):
    """The longest element w_M of the Levi of the minimal parabolic (``levi_simple_roots``)."""
    return weyl_longest_element(spec.datum, levi_simple_roots(spec))


def dominant_involution(spec, coweight):
    """The induced involution on the dominant cone: theta followed by the
    dominant representative.  Rejects non-dominant input."""
    if not is_dominant(spec.datum, coweight):
        raise ValidationError(f"{coweight} is not dominant")
    image, _ = dominant_representative(spec.datum, spec.apply(coweight))
    return image


def real_criterion(spec, coweight):
    """A dominant coweight is real iff it is fixed by the dominant involution
    and by the longest element of the Levi: the reference for ``is_real`` on
    the dominant cone."""
    if dominant_involution(spec, coweight) != coweight:  # rejects non-dominant input
        return False
    return mat_vec(levi_longest_element(spec), coweight) == coweight


def restricted_coroot_generators(spec):
    """The theta-fixed positive coroots and the nonzero sums beta + theta(beta)
    over the positive coroots, each once and sorted, by their definition: the
    reference for ``InvolutionSpec.restricted_coroot_generators``."""
    images = [(beta, mat_vec(spec.theta, beta)) for beta in positive_coroots(spec.datum)]
    gens = {beta for beta, image in images if image == beta} | {vec_add(beta, image) for beta, image in images}
    return tuple(sorted(g for g in gens if any(g)))


def symmetric_antiinvolution(form, g):
    """The symmetric anti-involution of a matrix form: g^T on a split form, J g^-1 J on a unitary one."""
    return transpose(g) if form.family == "split" else _turn(mat_inverse(g))


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
# and ``satake_involutions``
TYPE_A = {"A2": ((2, -1), (-1, 2)), "A3": ((2, -1, 0), (-1, 2, -1), (0, -1, 2))}

# type D, left out of CARTAN for the same reason, for ``satake_involutions``;
# node 1 is the branch node
TYPE_D = {"D4": ((2, -1, 0, 0), (-1, 2, -1, -1), (0, -1, 2, 0), (0, -1, 0, 2))}
ALL_CARTAN = {**CARTAN, **TYPE_A, **TYPE_D}

# real forms per type: B2 so(5), so(4,1), so(3,2); C2 sp(2), sp(1,1),
# sp(4,R); G2 compact and split; B3 so(7-q,q), q = 0..3; C3 sp(3), sp(2,1),
# sp(6,R); F4 compact, F4(-20) and split
REAL_FORM_COUNTS = {"B2": 3, "C2": 3, "G2": 2, "B3": 4, "C3": 3, "F4": 3}


def cartan_datum(name):
    """The root datum of a Cartan matrix on its coroot lattice, in
    simple-coroot coordinates: the simple coroots are the unit vectors and
    root j pairs with them by column j; the other roots and coroots are
    their images under the simple reflections, generated in pairs."""
    a = ALL_CARTAN[name]
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


def satake_involutions():
    """theta = w_M varpi for every set M of simple roots and every involutive
    diagram automorphism varpi (a permutation of the simple coroots, the unit
    vectors, that keeps the Cartan matrix) of A2, A3, B2, C2, G2, B3, C3 and D4:
    the candidates among which the Satake diagrams pick the real forms."""
    for name in ("A2", "A3", "B2", "C2", "G2", "B3", "C3", "D4"):
        datum, a = cartan_datum(name), ALL_CARTAN[name]
        n = datum.rank
        for perm in permutations(range(n)):
            if all(perm[perm[i]] == i and a[perm[i]][perm[j]] == a[i][j] for i in range(n) for j in range(n)):
                varpi = tuple(tuple(int(i == perm[j]) for j in range(n)) for i in range(n))
                for k in range(n + 1):
                    for subset in combinations(range(n), k):
                        theta = mat_mul(weyl_longest_element(datum, subset), varpi)
                        label = f"{name}_{''.join(map(str, perm))}_{''.join(map(str, subset))}"
                        yield InvolutionSpec(datum, theta, name=label)


def valid_specs():
    """Every real form of ``real_form_specs`` and the admitted ``satake_involutions``: 75 specs."""
    return real_form_specs() + [s for s in satake_involutions() if not validate_involution(s)]


def step_search(spec):
    """The indecomposable restricted coroot generators by search: the
    generators in order of height, each kept unless the ones kept before it
    generate it (one ``integer_solver`` per kept generator).  The reference
    for ``realform.step_basis``, which reads them off theta."""
    datum = spec.datum
    gens = sorted(restricted_coroot_generators(spec), key=lambda g: height(datum, g))
    zero, basis = (0,) * datum.rank, ()
    solver = integer_solver(basis, dim=datum.rank)
    for g in gens:
        if not free_monoid_leq(solver, zero, g):
            basis += (g,)
            solver = integer_solver(basis, dim=datum.rank)
    return basis


def real_coweight_coordinates(spec, coweight):
    """Coordinates of a theta-fixed coweight in ``spec.fixed_basis``, by the
    basis's ``integer_solver``: den is 1, the basis being saturated, and a
    coweight off the span (theta moves it) is refused."""
    den, rows, consistency = integer_solver(spec.fixed_basis, dim=spec.datum.rank)
    assert den == 1 and not any(dot(row, coweight) for row in consistency), (spec.name, coweight)
    return tuple(dot(row, coweight) for row in rows)


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


def dense_unipotent(terms):
    """A seeded upper unitriangular gl3_split loop whose three entries above the diagonal
    each have ``terms`` nonzero coefficients."""
    rng = random.Random(f"dense:{terms}")

    def entry():
        return LaurentPoly({
            e: Gaussian(Fraction(rng.randint(1, 9), rng.choice((1, 2, 3))), rng.randint(-9, 9))
            for e in range(-(terms // 2), terms - terms // 2)
        })

    one, zero = LaurentPoly.one(), LaurentPoly.zero()
    return lm_from_rows("gl3_split", [[one, entry(), entry()], [zero, one, entry()], [zero, zero, one]])
