"""Orbit posets of real and symmetric loop groups on the affine Grassmannian.

The package is organised around exact lattice combinatorics:

- ``rootdata``: root data, dominance order, Weyl actions, Smith normal form;
- ``realform``: lattice involutions for real forms, their step monoid, and a catalog of classical ones;
- ``fundgroup``: fundamental-group models and the parameterizing sub-semigroup;
- ``orbitposet``: the two orbit posets, their duality, Hasse diagrams, cores;
- ``loopmatrix``: an exact type-A Laurent-matrix model for the double-coset invariants;
- ``cli``: the ``matsuki`` command-line surface.
"""

from .errors import ParseError, TheoremViolationError, ValidationError
from .rootdata import (
    Coweight,
    FiniteAbelianGroup,
    RootDatum,
    dominance_leq,
    dominant_representative,
    height,
    pi1_of_group,
    smith_normal_form,
    validate_root_datum,
    weyl_longest_element,
)
from .realform import (
    InvolutionSpec,
    RealFormCatalogEntry,
    catalog,
    catalog_names,
    dominant_involution,
    levi_longest_element,
    levi_simple_roots,
    real_coweight_basis,
    real_criterion,
    restricted_coroot_generators,
    validate_involution,
)
from .fundgroup import (
    PiOneModel,
    in_image_semigroup,
    pi1_model,
    pi1_of_symmetric_space,
)
from .orbitposet import (
    CoreData,
    PosetSlice,
    build_poset_slice,
    core_data,
    enumerate_orbits,
    k_leq,
    matsuki_dual,
    primitive_relations,
    r_leq,
    real_step_leq,
)
from .loopmatrix import (
    FormAction,
    Gaussian,
    LaurentMatrix,
    LaurentPoly,
    form_action,
    form_names,
    geodesic_representative,
    k_orbit_invariant,
    r_orbit_invariant,
    splitting_type,
    stratum_invariant,
)
from .textio import (
    format_involution,
    format_matrix,
    format_root_datum,
    parse_involution,
    parse_matrix,
    parse_root_datum,
)

__version__ = "0.1.0"

__all__ = [
    "Coweight",
    "CoreData",
    "FiniteAbelianGroup",
    "FormAction",
    "Gaussian",
    "InvolutionSpec",
    "LaurentMatrix",
    "LaurentPoly",
    "ParseError",
    "PiOneModel",
    "PosetSlice",
    "RealFormCatalogEntry",
    "RootDatum",
    "TheoremViolationError",
    "ValidationError",
    "build_poset_slice",
    "catalog",
    "catalog_names",
    "core_data",
    "dominance_leq",
    "dominant_involution",
    "dominant_representative",
    "enumerate_orbits",
    "form_action",
    "form_names",
    "format_involution",
    "format_matrix",
    "format_root_datum",
    "geodesic_representative",
    "height",
    "in_image_semigroup",
    "k_leq",
    "k_orbit_invariant",
    "levi_longest_element",
    "levi_simple_roots",
    "matsuki_dual",
    "parse_involution",
    "parse_matrix",
    "parse_root_datum",
    "pi1_model",
    "pi1_of_group",
    "pi1_of_symmetric_space",
    "primitive_relations",
    "r_leq",
    "r_orbit_invariant",
    "real_coweight_basis",
    "real_criterion",
    "real_step_leq",
    "restricted_coroot_generators",
    "smith_normal_form",
    "splitting_type",
    "stratum_invariant",
    "validate_involution",
    "validate_root_datum",
    "weyl_longest_element",
]
