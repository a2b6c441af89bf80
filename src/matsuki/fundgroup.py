"""Fundamental-group bookkeeping for a real form.

Everything is modelled inside the cocharacter lattice.  The fundamental group
of the symmetric space is the theta-fixed sublattice modulo the restricted
coroot generators (the theta-fixed positive coroots together with the sums
coroot + theta(coroot)); the loop classes coming from the group itself are
generated by vectors lambda + theta(lambda).  Orbit indices are exactly the
dominant theta-fixed coweights whose class lies in that image.
"""

from __future__ import annotations

from .errors import ValidationError
from .realform import InvolutionSpec, real_coweight_coordinates, restricted_coroot_generators
from .record import Record
from .rootdata import Coweight, FiniteAbelianGroup, _require_rank, dot, pi1_of_group, quotient_group


class PiOneModel(Record):
    """Fundamental groups of the ambient group and symmetric space, the
    generators of the loop image, and the index of the parameterizing
    sub-semigroup inside the full cone of real dominant coweights."""

    group_pi1: FiniteAbelianGroup
    space_pi1: FiniteAbelianGroup
    image_generators: tuple[Coweight, ...]
    image_index: int


def pi1_of_symmetric_space(spec: InvolutionSpec) -> FiniteAbelianGroup:
    """Quotient of the theta-fixed sublattice by the restricted coroot generators,
    in fixed-basis coordinates.  The zero lattice gives the trivial group."""
    gens = tuple(real_coweight_coordinates(spec, g) for g in restricted_coroot_generators(spec))
    return quotient_group(len(spec.fixed_basis), gens)


def image_index(spec: InvolutionSpec) -> int:
    """Index of the loop image in the fixed sublattice: the order of the
    quotient of ``spec.image_lattice``, all that a poset slice reads of it."""
    return spec.image_lattice[1].order()


def pi1_model(spec: InvolutionSpec) -> PiOneModel:
    return PiOneModel(
        group_pi1=pi1_of_group(spec.datum),
        space_pi1=pi1_of_symmetric_space(spec),
        image_generators=spec.image_lattice[0],
        image_index=image_index(spec),
    )


def in_image_semigroup(spec: InvolutionSpec, coweight: Coweight) -> bool:
    """Membership in the parameterizing sub-semigroup: dominant, theta-fixed,
    and with loop class in the image.  Rejects non-dominant or non-real input."""
    return _member_pairings(spec, coweight) is not None


def _member_pairings(spec: InvolutionSpec, coweight: Coweight) -> list[int] | None:
    """The simple-root pairings of a member of the sub-semigroup, or None for a
    dominant theta-fixed coweight whose loop class is not in the image; refuses
    a length other than rank, then a non-dominant, then a non-real coweight."""
    datum = spec.datum
    _require_rank(datum, coweight)
    pairings = [dot(datum.roots[i], coweight) for i in datum.simple_indices]
    if min(pairings, default=0) < 0:
        raise ValidationError(f"{coweight} is not dominant")
    if not spec.is_real(coweight):
        raise ValidationError(f"{coweight} is not theta-fixed")
    return None if any(dot(row, coweight) % m for row, m in spec.image_lattice[2]) else pairings
