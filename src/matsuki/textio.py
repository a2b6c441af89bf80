"""Structured text formats for root data, involutions, and loop matrices.

One format family: ``key: value`` lines, with integer-matrix blocks written as
one row per line after a bare ``key:`` line.  Matrix files list entries as
``entry <row> <col>: (exp, re_num/re_den, im_num/im_den) ...`` tuples.
Exact integers and rationals only; every parse failure is fatal and carries a
line number, and a line that the format does not read is one.
"""

from __future__ import annotations

from math import gcd

from . import loopmatrix as lm  # read at call time: only matrix files run it
from .errors import ParseError, ValidationError
from .realform import MAX_RANK, InvolutionSpec, RealFormCatalogEntry, catalog, require_valid_involution
from .rootdata import RootDatum, require_valid

_BLOCK_KEYS = frozenset({"roots", "coroots", "theta"})
_DATUM_KEYS = frozenset({"name", "rank", "simple", "roots", "coroots"})


# The line readers use str methods, not the re module, which start-up would pay
# for.  Whitespace is what str.isspace accepts and a digit what str.isdecimal
# accepts, as for re's \s and \d, so Unicode digits and spaces read as there.


def _key_line(line: str) -> tuple[str, str] | None:
    """(key, value) of a stripped ``key: value`` line whose key is an ASCII
    identifier, with the value stripped; None for any other line."""
    key, colon, value = line.partition(":")
    key = key.rstrip()
    return (key, value.strip()) if colon and key.isascii() and key.isidentifier() else None


def _entry_line(line: str, lineno: int) -> tuple[int, int, str] | None:
    """(i, j, rest) of a stripped ``entry i j: rest`` line, with the rest
    stripped; None for any other line."""
    head, colon, rest = line.partition(":")
    words = head.split()
    if colon and len(words) == 3 and words[0] == "entry" and words[1].isdecimal() and words[2].isdecimal():
        return (*_ints(words[1:], lineno, "entry row or column too long"), rest.strip())
    return None


def _is_number(token: str, fraction: bool) -> bool:
    """Whether a token is ``-?d+``, or with ``fraction`` also ``-?d+/d+``."""
    num, slash, den = token.removeprefix("-").partition("/")
    return num.isdecimal() and (not slash or fraction and den.isdecimal())


def _ints(tokens, lineno: int, message: str) -> tuple[int, ...]:
    """The tokens' integers, as every integer of a file is read: a token ``int``
    refuses, one past Python's digit limit included, is a ParseError."""
    try:
        return tuple(int(token) for token in tokens)
    except ValueError:
        raise ParseError(lineno, message) from None


def _parse_int_row(line: str, lineno: int) -> tuple[int, ...]:
    return _ints(line.split(), lineno, f"expected a row of integers, got {line!r}")


def _parse_sections(text: str, where: str, keys, entries: list | None = None) -> dict[str, tuple]:
    """Split into key -> (lineno, inline value, block rows) in one pass.  A
    line is one of ``keys``, a row under a block key (``_BLOCK_KEYS``) or,
    when ``entries`` is a list, an ``entry i j:`` line after the first key,
    appended to it as (lineno, i, j, rest); any other line is a parse error."""
    sections: dict[str, tuple[int, str, list[tuple[int, str]]]] = {}
    rows = None  # the rows of the last key, if it is a block key
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not (line := raw.split("#", 1)[0].strip()):
            continue
        if parsed := _key_line(line):
            key, value = parsed
            if key not in keys:
                raise ParseError(lineno, f"unknown key {key!r} in {where}")
            if key in sections:
                raise ParseError(lineno, f"duplicate key {key!r}")
            sections[key] = (lineno, value, [])
            rows = sections[key][2] if key in _BLOCK_KEYS else None
        elif rows is not None:
            rows.append((lineno, line))
        elif entries is not None and sections and (entry := _entry_line(line, lineno)):
            entries.append((lineno, *entry))
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
    parsed = tuple(_parse_int_row(line, ln) for ln, line in rows)
    for (ln, _), row in zip(rows, parsed):
        if len(row) != len(parsed[0]):
            raise ParseError(ln, f"ragged row in matrix block {key!r}")
    return parsed


# ---------------------------------------------------------------------------
# root data and involutions


def _root_datum(sections) -> RootDatum:
    """The datum of the inline fields of a root-datum or involution file, unvalidated."""
    _, name, _ = _require_key(sections, "name", "root datum")
    rank_line, rank_value, _ = _require_key(sections, "rank", "root datum")
    (rank,) = _ints([rank_value], rank_line, f"rank must be an integer, got {rank_value!r}")
    simple_line, simple_value, _ = _require_key(sections, "simple", "root datum")
    simple = _parse_int_row(simple_value, simple_line) if simple_value else ()
    roots = _matrix_block(sections, "roots", "root datum") if "roots" in sections else ()
    coroots = _matrix_block(sections, "coroots", "root datum") if "coroots" in sections else ()
    if ("roots" in sections) != ("coroots" in sections):
        raise ParseError(0, "roots and coroots must be given together")
    return RootDatum(rank=rank, roots=roots, coroots=coroots, simple_indices=simple, name=name)


def parse_root_datum(text: str) -> RootDatum:
    datum = _root_datum(_parse_sections(text, "root datum", _DATUM_KEYS))
    if datum.rank > MAX_RANK:  # validation builds rank x rank matrices; no involution fits above
        raise ValidationError(f"invalid root datum {datum.name!r}: rank {datum.rank} is over the bound of {MAX_RANK}")
    require_valid(datum)
    return datum


def parse_involution(text: str) -> InvolutionSpec:
    """An involution file: a name, a theta block and either inline datum
    fields or a ``datum: <catalog name>`` reference, never both.  The datum is
    validated once: by the catalog lookup for a reference, here for inline
    fields, after theta's shape is held to the rank."""
    sections = _parse_sections(text, "involution", _DATUM_KEYS | {"datum", "theta"})
    _, name, _ = _require_key(sections, "name", "involution")
    if "datum" in sections:
        if inline := sorted((sections[k][0], k) for k in _DATUM_KEYS - {"name"} if k in sections):
            raise ParseError(inline[0][0], f"inline datum field {inline[0][1]!r} next to a datum reference")
        lineno, ref, _ = sections["datum"]
        try:
            base = catalog(ref).datum
        except ValidationError as exc:
            raise ParseError(lineno, str(exc))
    elif "rank" in sections:
        base = _root_datum(sections)
    else:
        raise ParseError(0, "involution file needs either inline datum fields or a datum reference")
    theta = _matrix_block(sections, "theta", "involution")
    if "datum" not in sections:
        # theta's shape is held to the rank before the datum's validation, whose Smith
        # form costs rank x rank; only a rank or vector wrong on its face goes first
        n = base.rank
        if n > 0 and all(len(v) == n for v in base.roots + base.coroots) and any(len(r) != n for r in (theta, *theta)):
            raise ValidationError(f"invalid involution {name!r}: theta must be a {n}x{n} integer matrix")
        require_valid(base)
    spec = InvolutionSpec(datum=base, theta=theta, name=name)
    require_valid_involution(spec)
    return spec


def _block(key: str, rows) -> str:
    return f"{key}:\n" + "".join(" ".join(map(str, row)) + "\n" for row in rows)


def format_root_datum(datum: RootDatum) -> str:
    simple = " ".join(map(str, datum.simple_indices))
    body = f"name: {datum.name}\nrank: {datum.rank}\nsimple: {simple}\n"
    return body + _block("roots", datum.roots) + _block("coroots", datum.coroots) if datum.roots else body


def format_involution(entry_or_spec) -> str:
    spec = entry_or_spec.spec if isinstance(entry_or_spec, RealFormCatalogEntry) else entry_or_spec
    # the involution file re-states the datum inline so it round-trips alone
    body = format_root_datum(spec.datum).replace(f"name: {spec.datum.name}", f"name: {spec.name}", 1)
    return body + _block("theta", spec.theta)


# ---------------------------------------------------------------------------
# loop matrices


def _entry(rest: str, lineno: int, i: int, j: int) -> lm.LaurentPoly:
    """The polynomial of an entry's text, read left to right: ``(e, re, im)``
    tuples with only spaces between them and any whitespace around a part,
    each part ``-?d+`` or, for ``re`` and ``im``, also ``-?d+/d+``."""
    unparsed = f"unparsed text in entry ({i}, {j}): {rest!r}"
    *tuples, tail = rest.split(")")
    coeffs: dict[int, lm.Gaussian] = {}
    for text in tuples:
        gap, paren, body = text.partition("(")
        parts = [part.strip() for part in body.split(",")]
        if gap.strip(" ") or not paren or len(parts) != 3 or not all(map(_is_number, parts, (False, True, True))):
            raise ParseError(lineno, unparsed)
        (p, _, q), (r, _, s) = parts[1].partition("/"), parts[2].partition("/")
        e, p, q, r, s = _ints((parts[0], p, q or "1", r, s or "1"), lineno, f"number too long in entry ({i}, {j})")
        if not q or not s:
            raise ParseError(lineno, f"bad rational {parts[2 if q else 1]!r}")
        if e in coeffs:
            raise ParseError(lineno, f"duplicate exponent {e} in entry ({i}, {j})")
        coeffs[e] = lm.Gaussian(p * s, r * q) / lm.Gaussian(q * s)  # p/q + (r/s)i
    if tail:
        raise ParseError(lineno, unparsed)
    return lm.LaurentPoly(coeffs)


def parse_matrix(text: str) -> lm.LaurentMatrix:
    entry_lines: list = []
    sections = _parse_sections(text, "matrix file", ("form", "size"), entry_lines)
    form_line, form_name, _ = _require_key(sections, "form", "matrix file")
    try:
        form = lm.form_action(form_name)
    except ValidationError as exc:
        raise ParseError(form_line, str(exc))
    size_line, size_value, _ = _require_key(sections, "size", "matrix file")
    (n,) = _ints([size_value], size_line, f"size must be an integer, got {size_value!r}")
    if n != form.n:
        raise ParseError(size_line, f"form {form_name} has size {form.n}, file says {n}")

    entries = [[lm.LaurentPoly.zero() for _ in range(n)] for _ in range(n)]
    seen: set[tuple[int, int]] = set()
    for lineno, i, j, rest in entry_lines:
        if not (1 <= i <= n and 1 <= j <= n):
            raise ParseError(lineno, f"entry ({i}, {j}) outside a {n}x{n} matrix")
        if (i, j) in seen:
            raise ParseError(lineno, f"duplicate entry ({i}, {j})")
        seen.add((i, j))
        entries[i - 1][j - 1] = _entry(rest, lineno, i, j)
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
