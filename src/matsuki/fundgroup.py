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
from .realform import InvolutionSpec, real_coweight_basis
from .record import Record
from .rootdata import (
    Coweight,
    FiniteAbelianGroup,
    dot,
    is_dominant,
    pi1_of_group,
    positive_coroots,
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


@lru_cache(maxsize=None)
def restricted_coroot_generators(spec: InvolutionSpec) -> tuple[Coweight, ...]:
    """Theta-fixed positive coroots and the sums beta + theta(beta), deduplicated,
    zero vectors removed.  These generate the positive cone of the fixed lattice."""
    gens: set[Coweight] = set()
    for beta in positive_coroots(spec.datum):
        if spec.apply(beta) == beta:
            gens.add(beta)
        total = vec_add(beta, spec.apply(beta))
        if any(x != 0 for x in total):
            gens.add(total)
    return tuple(sorted(gens))


def real_coweight_coordinates(spec: InvolutionSpec, coweight: Coweight) -> tuple[int, ...]:
    """Coordinates of a theta-fixed coweight in the fixed-sublattice basis."""
    den, rows, consistency = spec.fixed_solver
    if not rows:
        if any(x != 0 for x in coweight):
            raise ValidationError(f"{coweight} is not theta-fixed (fixed sublattice is zero)")
        return ()
    scaled = tuple(dot(row, coweight) for row in rows)
    if any(dot(row, coweight) for row in consistency) or any(c % den for c in scaled):
        raise ValidationError(f"{coweight} is not in the theta-fixed sublattice")
    return tuple(c // den for c in scaled)


@lru_cache(maxsize=None)
def pi1_of_symmetric_space(spec: InvolutionSpec) -> FiniteAbelianGroup:
    """Quotient of the theta-fixed sublattice by the restricted coroot generators,
    in fixed-basis coordinates.  The zero lattice gives the trivial group."""
    basis = real_coweight_basis(spec)
    gens = tuple(real_coweight_coordinates(spec, g) for g in restricted_coroot_generators(spec))
    return quotient_group(len(basis), gens)


@lru_cache(maxsize=None)
def _image_lattice_data(spec: InvolutionSpec):
    """Generators (in fixed-basis coordinates) of the preimage sublattice of the
    loop image: restricted coroot generators plus lambda + theta(lambda) over a
    lattice basis."""
    datum = spec.datum
    image_gens: list[Coweight] = []
    seen: set[Coweight] = set()
    for i in range(datum.rank):
        e = tuple(1 if j == i else 0 for j in range(datum.rank))
        total = vec_add(e, spec.apply(e))
        if any(x != 0 for x in total) and total not in seen:
            seen.add(total)
            image_gens.append(total)
    lattice_gens = tuple(
        real_coweight_coordinates(spec, g)
        for g in (*restricted_coroot_generators(spec), *image_gens)
    )
    return tuple(image_gens), lattice_gens


@lru_cache(maxsize=None)
def pi1_model(spec: InvolutionSpec) -> PiOneModel:
    basis = real_coweight_basis(spec)
    image_gens, lattice_gens = _image_lattice_data(spec)
    index = quotient_group(len(basis), lattice_gens).order()
    if index is None:
        # cannot happen: 2*lambda is always in the image lattice
        raise ValidationError("loop image has infinite index in the fixed sublattice")
    return PiOneModel(
        group_pi1=pi1_of_group(spec.datum),
        space_pi1=pi1_of_symmetric_space(spec),
        image_generators=image_gens,
        image_index=index,
    )


@lru_cache(maxsize=None)
def _membership_group(spec: InvolutionSpec) -> FiniteAbelianGroup:
    basis = real_coweight_basis(spec)
    _, lattice_gens = _image_lattice_data(spec)
    return quotient_group(len(basis), lattice_gens)


def in_image_semigroup(spec: InvolutionSpec, coweight: Coweight) -> bool:
    """Membership in the parameterizing sub-semigroup: dominant, theta-fixed,
    and with loop class in the image.  Rejects non-dominant or non-real input."""
    if not is_dominant(spec.datum, coweight):
        raise ValidationError(f"{coweight} is not dominant")
    if not spec.is_real(coweight):
        raise ValidationError(f"{coweight} is not theta-fixed")
    return _in_image_class(spec, coweight)


def _in_image_class(spec: InvolutionSpec, coweight: Coweight) -> bool:
    coords = real_coweight_coordinates(spec, coweight)
    return all(c == 0 for c in _membership_group(spec).image(coords))
