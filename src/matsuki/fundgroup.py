"""Fundamental-group bookkeeping for a real form.

Everything is modelled inside the cocharacter lattice.  The fundamental group
of the symmetric space is the theta-fixed sublattice modulo the restricted
coroot generators (the theta-fixed positive coroots together with the sums
coroot + theta(coroot)); the loop classes coming from the group itself are
generated by vectors lambda + theta(lambda).  Orbit indices are exactly the
dominant theta-fixed coweights whose class lies in that image.
"""

from __future__ import annotations

from operator import mul

from .errors import ValidationError
from .realform import InvolutionSpec
from .record import Record
from .rootdata import Coweight, FiniteAbelianGroup, integer_solver, mat_vec, pi1_of_group, quotient_group


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
    in fixed-basis coordinates, which its free part needs: the solve rows of the
    saturated basis (den 1).  The zero lattice gives the trivial group."""
    _, rows, _ = integer_solver(spec.fixed_basis, dim=spec.datum.rank)
    return quotient_group(len(spec.fixed_basis), tuple(mat_vec(rows, g) for g in spec.restricted_coroot_generators))


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
    """The pairings of a member of the sub-semigroup with ``positive_roots``, the
    simple ones first, or None for a dominant theta-fixed coweight whose loop class
    is not in the image; refuses a length other than rank, then a non-dominant,
    then a non-real coweight."""
    datum = spec.datum
    if len(coweight) != datum.rank:
        raise ValidationError(f"{coweight} does not have length rank={datum.rank}")
    pairings = [sum(map(mul, root, coweight)) for root in datum.positive_roots]
    if min(pairings[:len(datum.simple_indices)], default=0) < 0:
        raise ValidationError(f"{coweight} is not dominant")
    for row in spec.moving_rows:
        if sum(map(mul, row, coweight)):
            raise ValidationError(f"{coweight} is not theta-fixed")
    for row, m in spec.image_lattice[2]:
        if sum(map(mul, row, coweight)) % m:
            return None
    return pairings
