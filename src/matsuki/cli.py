"""Command-line surface: deterministic, file-based reports.

Exit codes: 0 success, 1 validation error (bad input, unknown name, parse
failure), 2 theorem-violation diagnostic (a structural law failed on the
given data).  All output is plain structured text with a stable field order,
so reports can be diffed against golden files.
"""

from __future__ import annotations

import argparse
import os
import sys

# Each module that only some commands use is imported as a module and read
# at call time, so a command runs only what it calls (see ``matsuki``).
from . import fundgroup, laws, orbitposet, textio
from . import loopmatrix as lm
from .errors import TheoremViolationError, ValidationError
from .realform import InvolutionSpec, catalog, catalog_names, is_catalog_spec, restricted_coroot_generators
from .rootdata import fmt_coweight

# loop-matrix names that callers still read as attributes of this module
# (bench/tests does), as when it imported them by name
_LOOP_NAMES = frozenset({
    "FormAction", "form_action", "form_names", "geodesic_representative", "k_orbit_invariant", "mat_mul",
    "r_orbit_invariant", "random_k_loop", "random_polynomial_loop", "random_real_loop", "splitting_type",
    "stratum_invariant",
})


def __getattr__(name: str):
    if name not in _LOOP_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(lm, name)


def resolve_spec(source: str) -> InvolutionSpec:
    """A spec source is a catalog name or a path to an involution file."""
    if source in catalog_names():
        return catalog(source).spec
    if os.path.exists(source):
        with open(source, encoding="utf-8") as fh:
            return textio.parse_involution(fh.read())
    raise ValidationError(
        f"{source!r} is neither a catalog name ({', '.join(catalog_names())}) nor a readable file"
    )


def _spec_note_lines(spec: InvolutionSpec) -> list[str]:
    if is_catalog_spec(spec):
        return []
    return ["note: non-catalog involution; lattice-level models are best-effort"]


def _parse_coweight(tokens, rank) -> tuple[int, ...]:
    try:
        vec = tuple(int(t) for t in tokens)
    except ValueError:
        raise ValidationError(f"coweight coordinates must be integers, got {tokens}")
    if len(vec) != rank:
        raise ValidationError(f"expected {rank} coordinates, got {len(vec)}")
    return vec


# ---------------------------------------------------------------------------
# commands


def cmd_catalog(args) -> int:
    names = catalog_names()
    if args.name is not None:
        entry = catalog(args.name)
        print(f"name: {entry.name}")
        print(f"rank: {entry.datum.rank}")
        print(f"expected_k_connected: {str(entry.expected_k_connected).lower()}")
        print("theta:")
        for row in entry.theta:
            print("  " + " ".join(str(x) for x in row))
        print(f"notes: {entry.notes}")
        return 0
    if args.export is not None:
        os.makedirs(args.export, exist_ok=True)
        for name in names:
            path = os.path.join(args.export, f"{name}.involution")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(textio.format_involution(catalog(name)))
            print(f"wrote: {path}")
        return 0
    for name in names:
        entry = catalog(name)
        theta_kind = (
            "identity"
            if entry.theta == tuple(tuple(int(i == j) for j in range(entry.datum.rank)) for i in range(entry.datum.rank))
            else "non-trivial"
        )
        print(
            f"{entry.name}: rank {entry.datum.rank}, theta {theta_kind}, "
            f"expected_k_connected {str(entry.expected_k_connected).lower()}"
        )
    return 0


def cmd_orbits(args) -> int:
    spec = resolve_spec(args.spec)
    elements = orbitposet.enumerate_orbits(spec, args.height)
    print(f"spec: {spec.name}")
    print(f"height: {args.height}")
    print(f"image_index: {fundgroup.pi1_model(spec).image_index}")
    print(f"components: {orbitposet.component_count(spec, elements)}")
    for line in _spec_note_lines(spec):
        print(line)
    print(f"count: {len(elements)}")
    for lam in elements:
        print(f"orbit: {fmt_coweight(lam)}")
    return 0


def cmd_poset(args) -> int:
    spec = resolve_spec(args.spec)
    slice_ = orbitposet.build_poset_slice(spec, args.height, args.order)
    if args.format == "graph":
        for a, b in slice_.hasse_edges:
            print(f"{fmt_coweight(a)} -> {fmt_coweight(b)}")
        return 0
    print(f"spec: {slice_.spec_name}")
    print(f"height: {slice_.height_bound}")
    print(f"order: {slice_.order}")
    print(f"image_index: {slice_.image_index}")
    print(f"components: {slice_.component_count}")
    for line in _spec_note_lines(spec):
        print(line)
    print(f"elements: {len(slice_.elements)}")
    for lam in slice_.elements:
        print(f"element: {fmt_coweight(lam)}")
    print(f"edges: {len(slice_.hasse_edges)}")
    for a, b in slice_.hasse_edges:
        print(f"edge: {fmt_coweight(a)} -> {fmt_coweight(b)}")
    return 0


def cmd_dual(args) -> int:
    spec = resolve_spec(args.spec)
    lam = _parse_coweight(args.coweight, spec.datum.rank)
    dual, core = orbitposet.matsuki_dual(spec, lam)
    print(f"spec: {spec.name}")
    print(f"orbit: {fmt_coweight(lam)}")
    print(f"dual: {fmt_coweight(dual)}")
    roots = " ".join(str(i) for i in core.parabolic_simple_roots)
    print(f"core_parabolic_simple_roots: {roots if roots else 'none'}")
    print(f"core_flag_dimension: {core.flag_dimension}")
    return 0


def cmd_core(args) -> int:
    spec = resolve_spec(args.spec)
    lam = _parse_coweight(args.coweight, spec.datum.rank)
    core = orbitposet.core_data(spec, lam)
    print(f"spec: {spec.name}")
    print(f"orbit: {fmt_coweight(lam)}")
    roots = " ".join(str(i) for i in core.parabolic_simple_roots)
    print(f"parabolic_simple_roots: {roots if roots else 'none'}")
    print(f"flag_dimension: {core.flag_dimension}")
    return 0


def cmd_pi1(args) -> int:
    spec = resolve_spec(args.spec)
    model = fundgroup.pi1_model(spec)
    print(f"spec: {spec.name}")
    print(f"pi1_group: {model.group_pi1.describe()}")
    print(f"pi1_group_factors: {' '.join(str(f) for f in model.group_pi1.invariant_factors) or 'none'}")
    print(f"pi1_space: {model.space_pi1.describe()}")
    print(f"pi1_space_factors: {' '.join(str(f) for f in model.space_pi1.invariant_factors) or 'none'}")
    gens = " ".join(fmt_coweight(g) for g in model.image_generators)
    print(f"image_generators: {gens if gens else 'none'}")
    restricted = " ".join(fmt_coweight(g) for g in restricted_coroot_generators(spec))
    print(f"restricted_coroot_generators: {restricted if restricted else 'none'}")
    print(f"image_index: {model.image_index}")
    for line in _spec_note_lines(spec):
        print(line)
    return 0


def cmd_invariant(args) -> int:
    with open(args.matrix, encoding="utf-8") as fh:
        g = textio.parse_matrix(fh.read())
    print(f"form: {g.form}")
    print(f"size: {g.n}")
    print(f"cartan: {fmt_coweight(lm.stratum_invariant(g))}")
    print(f"birkhoff: {fmt_coweight(lm.splitting_type(g))}")
    print(f"k_orbit: {fmt_coweight(lm.k_orbit_invariant(g))}")
    print(f"r_orbit: {fmt_coweight(lm.r_orbit_invariant(g))}")
    return 0


def cmd_check(args) -> int:
    if args.all:
        return laws.run_suites(catalog_names(), args.seed)
    if args.spec is None:
        raise ValidationError("check needs a catalog name or --all")
    if args.spec not in catalog_names():
        raise ValidationError(f"check runs on catalog entries; unknown {args.spec!r}")
    return laws.run_suites([args.spec], args.seed)


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matsuki",
        description="Orbit posets of real and symmetric loop groups on the affine Grassmannian.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catalog", help="list shipped real forms")
    p.add_argument("--name", help="show one entry in full")
    p.add_argument("--export", metavar="DIR", help="write every entry as an involution file")
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("orbits", help="enumerate orbit indices up to a height bound")
    p.add_argument("spec", help="catalog name or involution file")
    p.add_argument("--height", type=int, default=12)
    p.set_defaults(func=cmd_orbits)

    p = sub.add_parser("poset", help="orbit poset slice with Hasse edges")
    p.add_argument("spec", help="catalog name or involution file")
    p.add_argument("--height", type=int, default=12)
    p.add_argument("--format", choices=("report", "graph"), default="report")
    p.add_argument("--order", choices=("K", "R"), default="K")
    p.set_defaults(func=cmd_poset)

    p = sub.add_parser("dual", help="dual orbit and core data of an index")
    p.add_argument("spec")
    p.add_argument("coweight", nargs="+", help="coordinates in the entry's documented basis")
    p.set_defaults(func=cmd_dual)

    p = sub.add_parser("core", help="core flag-variety data of an index")
    p.add_argument("spec")
    p.add_argument("coweight", nargs="+")
    p.set_defaults(func=cmd_core)

    p = sub.add_parser("pi1", help="fundamental-group report")
    p.add_argument("spec")
    p.set_defaults(func=cmd_pi1)

    p = sub.add_parser("invariant", help="double-coset invariants of a loop matrix file")
    p.add_argument("matrix", help="path to a matrix file")
    p.set_defaults(func=cmd_invariant)

    p = sub.add_parser("check", help="run the property suites")
    p.add_argument("spec", nargs="?", help="catalog name")
    p.add_argument("--all", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except TheoremViolationError as exc:
        print(f"theorem violation: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # reader went away (e.g. piped into head); not an error
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0
    except (OSError, UnicodeDecodeError) as exc:
        # after BrokenPipeError, which is itself an OSError
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry_point() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry_point()
