"""Command-line surface: deterministic, file-based reports.

Exit codes: 0 success, 1 validation error (bad input, unknown name, parse
failure, usage error), 2 theorem-violation diagnostic (a structural law
failed on the given data).  All output is plain structured text with a
stable field order, so reports can be diffed against golden files.

The command grammar is one table, ``COMMANDS``, with two readers.  ``main``
reads argv with ``_read_table``, which imports nothing, and hands anything
it does not read exactly as argparse would (help, usage errors, ``--``,
abbreviations) to the argparse parser that ``build_parser`` makes of the
table; argparse, and the ``re``, ``gettext``, ``shutil`` and ``locale`` it
loads, are imported there only.  A usage error exits 1, not argparse's 2.
"""

from __future__ import annotations

import os
import sys
import types

# Each module that only some commands use is imported as a module and read
# at call time, so a command runs only what it calls (see ``matsuki``).
from . import fundgroup, laws, orbitposet, textio
from . import loopmatrix as lm
from .errors import TheoremViolationError, ValidationError
from .realform import InvolutionSpec, catalog, catalog_names, is_catalog_spec
from .rootdata import fmt_coweight

# loop-matrix names that callers still read as attributes of this module
# (bench/tests does), as when it imported them by name
_LOOP_NAMES = frozenset({"k_orbit_invariant", "mat_mul"})


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
        _write([f"name: {entry.name}", f"rank: {entry.datum.rank}",
                f"expected_k_connected: {str(entry.expected_k_connected).lower()}", "theta:",
                *("  " + " ".join(str(x) for x in row) for row in entry.theta), f"notes: {entry.notes}"])
        return 0
    if args.export is not None:
        os.makedirs(args.export, exist_ok=True)
        for name in names:
            path = os.path.join(args.export, f"{name}.involution")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(textio.format_involution(catalog(name)))
            print(f"wrote: {path}")
        return 0
    _write(f"{entry.name}: rank {entry.datum.rank}, theta {'non-trivial' if entry.spec.moving_rows else 'identity'}, "
           f"expected_k_connected {str(entry.expected_k_connected).lower()}" for entry in map(catalog, names))
    return 0


def _write(lines) -> None:
    """Write a report's lines to stdout in one call."""
    sys.stdout.write("".join(f"{line}\n" for line in lines))


def cmd_orbits(args) -> int:
    spec = resolve_spec(args.spec)
    elements = orbitposet.enumerate_orbits(spec, args.height)
    _write([f"spec: {spec.name}", f"height: {args.height}", f"image_index: {fundgroup.image_index(spec)}",
            f"components: {orbitposet.component_count(spec, elements)}", *_spec_note_lines(spec),
            f"count: {len(elements)}", *(f"orbit: {fmt_coweight(lam)}" for lam in elements)])
    return 0


def cmd_poset(args) -> int:
    spec = resolve_spec(args.spec)
    slice_ = orbitposet.build_poset_slice(spec, args.height, args.order)
    edges = [f"{fmt_coweight(a)} -> {fmt_coweight(b)}" for a, b in slice_.hasse_edges]
    if args.format == "graph":
        _write(edges)
        return 0
    _write([f"spec: {slice_.spec_name}", f"height: {slice_.height_bound}", f"order: {slice_.order}",
            f"image_index: {slice_.image_index}", f"components: {slice_.component_count}", *_spec_note_lines(spec),
            f"elements: {len(slice_.elements)}", *(f"element: {fmt_coweight(lam)}" for lam in slice_.elements),
            f"edges: {len(edges)}", *(f"edge: {edge}" for edge in edges)])
    return 0


def cmd_dual(args) -> int:
    return _core_report(args, dual=True)


def cmd_core(args) -> int:
    return _core_report(args, dual=False)


def _core_report(args, dual: bool) -> int:
    """The report of ``dual`` (from ``matsuki_dual``) or ``core`` (from ``core_data``)."""
    spec = resolve_spec(args.spec)
    lam = _parse_coweight(args.coweight, spec.datum.rank)
    if dual:
        image, core = orbitposet.matsuki_dual(spec, lam)
        dual_lines, prefix = [f"dual: {fmt_coweight(image)}"], "core_"
    else:
        core, dual_lines, prefix = orbitposet.core_data(spec, lam), [], ""
    roots = " ".join(str(i) for i in core.parabolic_simple_roots)
    _write([f"spec: {spec.name}", f"orbit: {fmt_coweight(lam)}", *dual_lines,
            f"{prefix}parabolic_simple_roots: {roots if roots else 'none'}",
            f"{prefix}flag_dimension: {core.flag_dimension}"])
    return 0


def cmd_pi1(args) -> int:
    spec = resolve_spec(args.spec)
    model = fundgroup.pi1_model(spec)
    gens = " ".join(fmt_coweight(g) for g in model.image_generators)
    restricted = " ".join(fmt_coweight(g) for g in spec.restricted_coroot_generators)
    _write([f"spec: {spec.name}", f"pi1_group: {model.group_pi1.describe()}",
            f"pi1_group_factors: {' '.join(str(f) for f in model.group_pi1.invariant_factors) or 'none'}",
            f"pi1_space: {model.space_pi1.describe()}",
            f"pi1_space_factors: {' '.join(str(f) for f in model.space_pi1.invariant_factors) or 'none'}",
            f"image_generators: {gens or 'none'}", f"restricted_coroot_generators: {restricted or 'none'}",
            f"image_index: {model.image_index}", *_spec_note_lines(spec)])
    return 0


def cmd_invariant(args) -> int:
    with open(args.matrix, encoding="utf-8") as fh:
        g = textio.parse_matrix(fh.read())
    # line by line, not in one write: a theorem violation keeps the invariants printed before it
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

# The command grammar, written once: each command's handler, help text and
# arguments, in order, as ``add_argument`` takes them.  Positionals take nargs
# None, "?" or "+", and a command with options has one positional at most, so
# argparse never splits positionals at an option.  Options are long options
# and none looks like a negative number, so a negative integer is always a
# positional or an option value.
COMMANDS = {
    "catalog": (cmd_catalog, "list shipped real forms", (
        ("--name", {"help": "show one entry in full"}),
        ("--export", {"metavar": "DIR", "help": "write every entry as an involution file"}),
    )),
    "orbits": (cmd_orbits, "enumerate orbit indices up to a height bound", (
        ("spec", {"help": "catalog name or involution file"}),
        ("--height", {"type": int, "default": 12}),
    )),
    "poset": (cmd_poset, "orbit poset slice with Hasse edges", (
        ("spec", {"help": "catalog name or involution file"}),
        ("--height", {"type": int, "default": 12}),
        ("--format", {"choices": ("report", "graph"), "default": "report"}),
        ("--order", {"choices": ("K", "R"), "default": "K"}),
    )),
    "dual": (cmd_dual, "dual orbit and core data of an index", (
        ("spec", {}),
        ("coweight", {"nargs": "+", "help": "coordinates in the entry's documented basis"}),
    )),
    "core": (cmd_core, "core flag-variety data of an index", (
        ("spec", {}),
        ("coweight", {"nargs": "+"}),
    )),
    "pi1": (cmd_pi1, "fundamental-group report", (
        ("spec", {}),
    )),
    "invariant": (cmd_invariant, "double-coset invariants of a loop matrix file", (
        ("matrix", {"help": "path to a matrix file"}),
    )),
    "check": (cmd_check, "run the property suites", (
        ("spec", {"nargs": "?", "help": "catalog name"}),
        ("--all", {"action": "store_true"}),
        ("--seed", {"type": int, "default": 0}),
    )),
}


def build_parser():
    """The argparse parser of ``COMMANDS``, which alone prints help and usage
    errors; argparse and the modules it loads are imported here only."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="matsuki",
        description="Orbit posets of real and symmetric loop groups on the affine Grassmannian.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, help_text, arguments) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, kwargs in arguments:
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=handler)
    return parser


def _convert(token: str, kwargs: dict):
    """token as argparse converts and checks it as a positional or an option
    value; ValueError where argparse fails or might not take it as a value,
    which is anything that starts with "-" but a negative integer."""
    if token.startswith("-") and not (token[1:].isascii() and token[1:].isdecimal()):
        raise ValueError(token)
    value = kwargs.get("type", str)(token)
    if value not in kwargs.get("choices", (value,)):
        raise ValueError(token)
    return value


def _read_table(argv):
    """The namespace argparse makes of argv, read from ``COMMANDS`` without
    argparse, or None wherever argparse might read argv otherwise: help,
    ``--``, ``--opt=value``, abbreviations, unknown tokens, bad values, and
    a missing or extra argument."""
    if not argv or argv[0] not in COMMANDS:
        return None
    handler, _, arguments = COMMANDS[argv[0]]
    values = {"command": argv[0], "func": handler}
    options, positionals = {}, []
    for flag, kwargs in arguments:
        dest = flag.lstrip("-").replace("-", "_")
        if flag.startswith("-"):
            options[flag] = dest, kwargs
            values[dest] = kwargs.get("default", False if kwargs.get("action") == "store_true" else None)
        else:
            positionals.append((dest, kwargs))
            values[dest] = kwargs.get("default")
    words = []
    tokens = iter(argv[1:])
    try:
        for token in tokens:
            if token in options:
                dest, kwargs = options[token]
                store_true = kwargs.get("action") == "store_true"
                values[dest] = True if store_true else _convert(next(tokens), kwargs)
            else:
                words.append(token)  # each is converted, or left over, below
        for dest, kwargs in positionals:
            nargs = kwargs.get("nargs")
            if nargs == "+" and words:
                values[dest], words = [_convert(w, kwargs) for w in words], []
            elif nargs != "+" and words:
                values[dest], words = _convert(words[0], kwargs), words[1:]
            elif nargs != "?":
                return None
    except (StopIteration, ValueError):
        return None
    return None if words else types.SimpleNamespace(**values)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_table(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            if exc.code == 2:  # a usage error
                raise SystemExit(1) from None
            raise
    try:
        return args.func(args)
    except BrokenPipeError:
        # reader went away (e.g. piped into head); not an error
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0
    except (ValidationError, OSError, UnicodeDecodeError) as exc:  # after BrokenPipeError, itself an OSError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except TheoremViolationError as exc:
        print(f"theorem violation: {exc}", file=sys.stderr)
        return 2


def entry_point() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry_point()
