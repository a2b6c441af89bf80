"""Fundamental-group bookkeeping for a real form.

Everything is modelled inside the cocharacter lattice.  The fundamental group
of the symmetric space is the theta-fixed sublattice modulo the restricted
coroot generators (the theta-fixed positive coroots together with the sums
coroot + theta(coroot)); the loop classes coming from the group itself are
generated by vectors lambda + theta(lambda).  Orbit indices are exactly the
dominant theta-fixed coweights whose class lies in that image.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import ValidationError
from .realform import InvolutionSpec, real_coweight_basis, restricted_coroot_generators
from .record import Record
from .rootdata import (
    Coweight,
    FiniteAbelianGroup,
    dot,
    identity_matrix,
    is_dominant,
    mat_mul,
    pi1_of_group,
    quotient_group,
    vec_add,
)


class PiOneModel(Record):
    """Fundamental groups of the ambient group and symmetric space, the
    generators of the loop image, and the index of the parameterizing
    sub-semigroup inside the full cone of real dominant coweights."""

    group_pi1: FiniteAbelianGroup
    space_pi1: FiniteAbelianGroup
    image_generators: tuple[Coweight, ...]
    image_index: int


def real_coweight_coordinates(spec: InvolutionSpec, coweight: Coweight) -> tuple[int, ...]:
    """Coordinates of a theta-fixed coweight in the fixed-sublattice basis."""
    den, rows, consistency = spec.fixed_solver
    scaled = tuple(dot(row, coweight) for row in rows)
    if any(dot(row, coweight) for row in consistency) or any(c % den for c in scaled):
        raise ValidationError(f"{coweight} is not in the theta-fixed sublattice")
    return tuple(c // den for c in scaled)


def pi1_of_symmetric_space(spec: InvolutionSpec) -> FiniteAbelianGroup:
    """Quotient of the theta-fixed sublattice by the restricted coroot generators,
    in fixed-basis coordinates.  The zero lattice gives the trivial group."""
    basis = real_coweight_basis(spec)
    gens = tuple(real_coweight_coordinates(spec, g) for g in restricted_coroot_generators(spec))
    return quotient_group(len(basis), gens)


@lru_cache(maxsize=None)
def _image_lattice(spec: InvolutionSpec) -> tuple[tuple[Coweight, ...], FiniteAbelianGroup, tuple]:
    """The generators lambda + theta(lambda) of the loop image over a lattice
    basis, the quotient of the fixed sublattice by the preimage of that
    image, which the restricted coroot generators and those sums generate
    (in fixed-basis coordinates), and that quotient's class test on the
    lattice itself: pairs (row, m), each a row of the projection times the
    solve rows of the fixed basis and den times its invariant factor, such
    that a theta-fixed coweight has class zero iff every row pairs with it
    to a multiple of m."""
    sums = (vec_add(e, spec.apply(e)) for e in identity_matrix(spec.datum.rank))
    image_gens = tuple(dict.fromkeys(v for v in sums if any(v)))
    lattice_gens = tuple(
        real_coweight_coordinates(spec, g)
        for g in (*restricted_coroot_generators(spec), *image_gens)
    )
    group = quotient_group(len(real_coweight_basis(spec)), lattice_gens)
    den, rows, _ = spec.fixed_solver
    # every factor is finite: 2*lambda = lambda + theta(lambda) lies in the image
    class_rows = tuple(zip(mat_mul(group.projection, rows), (den * f for f in group.invariant_factors)))
    return image_gens, group, class_rows


def image_index(spec: InvolutionSpec) -> int:
    """Index of the loop image in the fixed sublattice: the order of the
    quotient of ``_image_lattice``, all that a poset slice reads of it."""
    index = _image_lattice(spec)[1].order()
    if index is None:
        # cannot happen: 2*lambda is always in the image lattice
        raise ValidationError("loop image has infinite index in the fixed sublattice")
    return index


def pi1_model(spec: InvolutionSpec) -> PiOneModel:
    return PiOneModel(
        group_pi1=pi1_of_group(spec.datum),
        space_pi1=pi1_of_symmetric_space(spec),
        image_generators=_image_lattice(spec)[0],
        image_index=image_index(spec),
    )


def in_image_semigroup(spec: InvolutionSpec, coweight: Coweight) -> bool:
    """Membership in the parameterizing sub-semigroup: dominant, theta-fixed,
    and with loop class in the image.  Rejects non-dominant or non-real input."""
    if not is_dominant(spec.datum, coweight):
        raise ValidationError(f"{coweight} is not dominant")
    if not spec.is_real(coweight):
        raise ValidationError(f"{coweight} is not theta-fixed")
    return _in_image_class(spec, coweight)


def _in_image_class(spec: InvolutionSpec, coweight: Coweight) -> bool:
    """Whether a theta-fixed coweight has loop class zero, with no solve."""
    return not any(dot(row, coweight) % m for row, m in _image_lattice(spec)[2])
