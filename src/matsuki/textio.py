"""Structured text formats for root data, involutions, and loop matrices.

One format family: ``key: value`` lines, with integer-matrix blocks written as
one row per line after a bare ``key:`` line.  Matrix files list entries as
``entry <row> <col>: (exp, re_num/re_den, im_num/im_den) ...`` tuples.
Exact integers and rationals only; every parse failure is fatal and carries a
line number.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd

from . import loopmatrix as lm  # read at call time: only matrix files run it
from .errors import ParseError, ValidationError
from .realform import InvolutionSpec, RealFormCatalogEntry, catalog, require_valid_involution
from .rootdata import RootDatum, require_valid

_KEY_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)\s*:\s*(.*)$")
_ENTRY_RE = re.compile(r"^entry\s+(\d+)\s+(\d+)\s*:\s*(.*)$")
_TUPLE_RE = re.compile(r"\(\s*(-?\d+)\s*,\s*(-?\d+(?:/\d+)?)\s*,\s*(-?\d+(?:/\d+)?)\s*\)")


def _logical_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _parse_int_row(line: str, lineno: int) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in line.split())
    except ValueError:
        raise ParseError(lineno, f"expected a row of integers, got {line!r}")


def _parse_sections(text: str) -> dict[str, tuple[int, str, list[tuple[int, str]]]]:
    """Split into key -> (lineno, inline value, block rows)."""
    sections: dict[str, tuple[int, str, list[tuple[int, str]]]] = {}
    current: str | None = None
    for lineno, line in _logical_lines(text):
        m = _KEY_RE.match(line)
        if m and not _ENTRY_RE.match(line):
            key, value = m.group(1), m.group(2).strip()
            if key in sections:
                raise ParseError(lineno, f"duplicate key {key!r}")
            sections[key] = (lineno, value, [])
            current = key
        elif current is not None:
            sections[current][2].append((lineno, line))
        else:
            raise ParseError(lineno, f"expected 'key: value', got {line!r}")
    return sections


def _require_key(sections, key: str, where: str):
    if key not in sections:
        raise ParseError(0, f"missing required key {key!r} in {where}")
    return sections[key]


def _matrix_block(sections, key: str, where: str) -> tuple[tuple[int, ...], ...]:
    lineno, value, rows = _require_key(sections, key, where)
    if value:
        raise ParseError(lineno, f"{key!r} must introduce a matrix block, not an inline value")
    if not rows:
        raise ParseError(lineno, f"matrix block {key!r} is empty")
    parsed = [_parse_int_row(line, ln) for ln, line in rows]
    width = len(parsed[0])
    for (ln, _), row in zip(rows, parsed):
        if len(row) != width:
            raise ParseError(ln, f"ragged row in matrix block {key!r}")
    return tuple(parsed)


# ---------------------------------------------------------------------------
# root data and involutions


def parse_root_datum(text: str) -> RootDatum:
    sections = _parse_sections(text)
    name_line, name, _ = _require_key(sections, "name", "root datum")
    rank_line, rank_value, _ = _require_key(sections, "rank", "root datum")
    try:
        rank = int(rank_value)
    except ValueError:
        raise ParseError(rank_line, f"rank must be an integer, got {rank_value!r}")
    simple_line, simple_value, _ = _require_key(sections, "simple", "root datum")
    simple = _parse_int_row(simple_value, simple_line) if simple_value else ()
    roots = _matrix_block(sections, "roots", "root datum") if "roots" in sections else ()
    coroots = _matrix_block(sections, "coroots", "root datum") if "coroots" in sections else ()
    if ("roots" in sections) != ("coroots" in sections):
        raise ParseError(0, "roots and coroots must be given together")
    datum = RootDatum(rank=rank, roots=roots, coroots=coroots, simple_indices=simple, name=name)
    require_valid(datum)
    return datum


def parse_involution(text: str) -> InvolutionSpec:
    """An involution file: a theta block plus either inline datum fields or a
    ``datum: <catalog name>`` reference."""
    sections = _parse_sections(text)
    _, name, _ = _require_key(sections, "name", "involution")
    if "datum" in sections:
        lineno, ref, _ = sections["datum"]
        try:
            base = catalog(ref).datum
        except ValidationError as exc:
            raise ParseError(lineno, str(exc))
    elif "rank" in sections:
        base = parse_root_datum(text)
    else:
        raise ParseError(0, "involution file needs either inline datum fields or a datum reference")
    theta = _matrix_block(sections, "theta", "involution")
    spec = InvolutionSpec(datum=base, theta=theta, name=name)
    require_valid_involution(spec)
    return spec


def format_root_datum(datum: RootDatum) -> str:
    lines = [f"name: {datum.name}", f"rank: {datum.rank}"]
    lines.append("simple: " + " ".join(str(i) for i in datum.simple_indices))
    if datum.roots:
        lines.append("roots:")
        lines.extend(" ".join(str(x) for x in row) for row in datum.roots)
        lines.append("coroots:")
        lines.extend(" ".join(str(x) for x in row) for row in datum.coroots)
    return "\n".join(lines) + "\n"


def format_involution(entry_or_spec) -> str:
    if isinstance(entry_or_spec, RealFormCatalogEntry):
        spec = entry_or_spec.spec
    else:
        spec = entry_or_spec
    body = format_root_datum(spec.datum)
    # the involution file re-states the datum inline so it round-trips alone
    body = body.replace(f"name: {spec.datum.name}", f"name: {spec.name}", 1)
    lines = [body.rstrip("\n"), "theta:"]
    lines.extend(" ".join(str(x) for x in row) for row in spec.theta)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# loop matrices


def _parse_rational(token: str, lineno: int) -> Fraction:
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise ParseError(lineno, f"bad rational {token!r}")


def parse_matrix(text: str) -> lm.LaurentMatrix:
    sections = _parse_sections(text)
    form_line, form_name, _ = _require_key(sections, "form", "matrix file")
    try:
        form = lm.form_action(form_name)
    except ValidationError as exc:
        raise ParseError(form_line, str(exc))
    size_line, size_value, _ = _require_key(sections, "size", "matrix file")
    try:
        n = int(size_value)
    except ValueError:
        raise ParseError(size_line, f"size must be an integer, got {size_value!r}")
    if n != form.n:
        raise ParseError(size_line, f"form {form_name} has size {form.n}, file says {n}")

    entries = [[lm.LaurentPoly.zero() for _ in range(n)] for _ in range(n)]
    seen: set[tuple[int, int]] = set()
    for lineno, line in _logical_lines(text):
        m = _ENTRY_RE.match(line)
        if not m:
            continue
        i, j = int(m.group(1)), int(m.group(2))
        if not (1 <= i <= n and 1 <= j <= n):
            raise ParseError(lineno, f"entry ({i}, {j}) outside a {n}x{n} matrix")
        if (i, j) in seen:
            raise ParseError(lineno, f"duplicate entry ({i}, {j})")
        seen.add((i, j))
        rest = m.group(3).strip()
        matches = list(_TUPLE_RE.finditer(rest))
        coeffs: dict[int, lm.Gaussian] = {}
        for match in matches:
            e = int(match.group(1))
            re_part = _parse_rational(match.group(2), lineno)
            im_part = _parse_rational(match.group(3), lineno)
            if e in coeffs:
                raise ParseError(lineno, f"duplicate exponent {e} in entry ({i}, {j})")
            coeffs[e] = lm.Gaussian(re_part, im_part)
        if rest.replace(" ", "") != "".join(match.group(0).replace(" ", "") for match in matches):
            raise ParseError(lineno, f"unparsed text in entry ({i}, {j}): {rest!r}")
        entries[i - 1][j - 1] = lm.LaurentPoly(coeffs)
    g = lm.lm_from_rows(form_name, entries)
    form.validate(g)
    return g


def _ratio(num: int, den: int) -> str:
    g = gcd(num, den)
    return f"{num // g}/{den // g}"


def format_matrix(g: lm.LaurentMatrix) -> str:
    lines = [f"form: {g.form}", f"size: {g.n}"]
    for i in range(g.n):
        for j in range(g.n):
            terms = " ".join(
                f"({e}, {_ratio(c.a, c.d)}, {_ratio(c.b, c.d)})"
                for e, c in sorted(g.entries[i][j].items())
            )
            lines.append(f"entry {i + 1} {j + 1}: {terms}".rstrip())
    return "\n".join(lines) + "\n"
