"""Orbit posets of real and symmetric loop groups on the affine Grassmannian.

The package is organised around exact lattice combinatorics:

- ``rootdata``: root data, dominance order, Weyl actions, Smith normal form;
- ``realform``: lattice involutions for real forms, their step monoid, and a catalog of classical ones;
- ``fundgroup``: fundamental-group models and the parameterizing sub-semigroup;
- ``orbitposet``: the two orbit posets, their duality, Hasse diagrams, cores;
- ``loopmatrix``: an exact type-A Laurent-matrix model for the double-coset invariants;
- ``textio``: the text formats for root data, involutions and loop matrices;
- ``laws``: the property suites behind ``matsuki check``;
- ``cli``: the ``matsuki`` command-line surface.

Start-up: importing the package registers every library module in
``sys.modules`` without running it; a module runs on its first attribute
access (other threads wait until it has run), and the names below are read
from their modules on demand.  So a command runs only the modules it uses:
every command runs ``errors``, ``record``, ``rootdata`` and ``realform``;
``orbits``, ``poset``, ``dual``, ``core`` and ``pi1`` add ``fundgroup`` and
``orbitposet``; a spec file and ``catalog --export`` add ``textio``;
``invariant`` adds ``textio`` and ``loopmatrix``; ``check`` adds ``laws`` and
with it the rest.  ``cli`` is never registered: ``python -m matsuki.cli``
must find it unimported.
"""

import importlib.util
import sys
import types
from _thread import RLock

__version__ = "0.1.0"

# the public names, by the module that defines them
_EXPORTS = {
    "errors": ("ParseError", "TheoremViolationError", "ValidationError"),
    "rootdata": (
        "Coweight", "FiniteAbelianGroup", "RootDatum", "dominance_leq", "height", "pi1_of_group",
        "smith_normal_form", "validate_root_datum",
    ),
    "realform": (
        "InvolutionSpec", "RealFormCatalogEntry", "catalog", "catalog_names", "levi_simple_roots",
        "validate_involution",
    ),
    "fundgroup": ("PiOneModel", "in_image_semigroup", "pi1_model", "pi1_of_symmetric_space"),
    "orbitposet": (
        "CoreData", "PosetSlice", "build_poset_slice", "core_data", "enumerate_orbits", "k_leq", "matsuki_dual",
        "primitive_relations", "r_leq", "real_step_leq",
    ),
    "loopmatrix": (
        "FormAction", "Gaussian", "LaurentMatrix", "LaurentPoly", "form_action", "form_names",
        "geodesic_representative", "k_orbit_invariant", "r_orbit_invariant", "splitting_type", "stratum_invariant",
    ),
    "textio": (
        "format_involution", "format_matrix", "format_root_datum", "parse_involution", "parse_matrix",
        "parse_root_datum",
    ),
}
_HOME = {name: stem for stem, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)


def _after_run(method):
    """The module method, called once the module's code has run; other threads
    wait on the module's lock until it has, and the loader's own uses of the
    module, made while it runs, pass through."""

    def hook(module, *args):
        spec = object.__getattribute__(module, "__spec__")
        with spec.loader_state["lock"]:
            if type(module) is _LazyModule and not spec.loader_state["running"]:
                spec.loader_state["running"] = True
                try:
                    spec.loader.exec_module(module)
                finally:
                    spec.loader_state["running"] = False
                object.__setattr__(module, "__class__", types.ModuleType)  # not the hook
        return method(module, *args)

    return hook


class _LazyModule(types.ModuleType):
    """A registered module that runs its code on the first attribute read,
    assignment or deletion, then acts.  ``importlib.util.LazyLoader`` before
    Python 3.13 marks the module as run before its code has run, so a second
    thread reads a half-run module."""

    __getattribute__ = _after_run(types.ModuleType.__getattribute__)
    __setattr__ = _after_run(types.ModuleType.__setattr__)
    __delattr__ = _after_run(types.ModuleType.__delattr__)


def _register(stem: str) -> types.ModuleType:
    """The module ``matsuki.<stem>``, in ``sys.modules`` and run on first use."""
    name = f"{__name__}.{stem}"
    if name in sys.modules:  # the package itself is being imported again
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    spec.loader_state = {"lock": RLock(), "running": False}
    module = importlib.util.module_from_spec(spec)
    module.__class__ = _LazyModule
    sys.modules[name] = module
    return module


errors = _register("errors")
record = _register("record")
rootdata = _register("rootdata")
realform = _register("realform")
fundgroup = _register("fundgroup")
orbitposet = _register("orbitposet")
loopmatrix = _register("loopmatrix")
textio = _register("textio")
laws = _register("laws")


def __getattr__(name: str):
    """A public name, read from its defining module (PEP 562)."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_HOME[name]], name)
