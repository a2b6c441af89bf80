"""Structured-text round trips and parse errors with line numbers."""

import random
import re
import tracemalloc
from fractions import Fraction

import pytest

from matsuki import realform, rootdata, textio
from matsuki.errors import ParseError, ValidationError
from matsuki.loopmatrix import (
    FormAction,
    Gaussian,
    LaurentPoly,
    diagonal_loop,
    form_names,
    lm_from_rows,
    loops_equal,
    random_k_loop,
    random_polynomial_loop,
    random_real_loop,
)
from matsuki.realform import MAX_RANK, catalog, catalog_names
from matsuki.textio import (
    format_involution,
    format_matrix,
    format_root_datum,
    parse_involution,
    parse_matrix,
    parse_root_datum,
)

SL2_TEXT = """\
name: sl2
rank: 1
simple: 0
roots:
2
-2
coroots:
1
-1
"""


def test_root_datum_round_trip():
    datum = parse_root_datum(SL2_TEXT)
    assert datum.rank == 1
    assert datum.roots == ((2,), (-2,))
    assert parse_root_datum(format_root_datum(datum)) == datum


def test_root_datum_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError, match="line 2"):
        parse_root_datum("name: x\nrank: huh\nsimple: 0\n")
    with pytest.raises(ParseError, match="line 6"):
        parse_root_datum("name: x\nrank: 1\nsimple: 0\nroots:\n2\nnot numbers\ncoroots:\n1\n")
    with pytest.raises(ParseError, match="missing required key"):
        parse_root_datum("rank: 1\nsimple: 0\n")
    with pytest.raises(ParseError, match=r"^line 4: expected 'key: value', got '1'$"):
        parse_root_datum("name: x\nrank: 1\nsimple: 0\n1\n")  # rows follow block keys only
    with pytest.raises(ParseError, match=r"^line 2: unknown key 'theta' in root datum$"):
        parse_root_datum("name: x\ntheta:\n1\n")


def test_a_root_datum_over_the_rank_bound_is_refused_before_any_smith_form(monkeypatch):
    # refused on its face, before validation: no involution fits a rank over the bound
    text = "name: x\nrank: {}\nsimple:\n".format
    refusal = rf"^invalid root datum 'x': rank {MAX_RANK + 1} is over the bound of {MAX_RANK}$"
    monkeypatch.setattr(rootdata, "smith_normal_form", None)
    with pytest.raises(ValidationError, match=refusal):
        parse_root_datum(text(MAX_RANK + 1))
    monkeypatch.undo()
    assert parse_root_datum(text(MAX_RANK)).rank == MAX_RANK


def test_involution_with_inline_datum():
    text = SL2_TEXT.replace("name: sl2", "name: my_split") + "theta:\n1\n"
    spec = parse_involution(text)
    assert spec.name == "my_split"
    assert spec.theta == ((1,),)


def test_involution_with_catalog_reference():
    spec = parse_involution("name: borrowed\ndatum: sl3_split\ntheta:\n0 1\n1 0\n")
    assert spec.datum.rank == 2
    assert spec.theta == ((0, 1), (1, 0))


def test_theta_shape_is_held_to_the_rank_before_the_datum_is_validated():
    # 36 bytes declaring rank 2,000: validating the datum first would build a
    # 2,000 x 2,000 Smith form (a 61 MiB peak) for a theta of one entry
    text = "name: x\nrank: 2000\nsimple:\ntheta:\n1\n"
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match=r"^invalid involution 'x': theta must be a 2000x2000 integer matrix$"):
            parse_involution(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def identity_involution_text(rank):
    """A valid involution file of the given rank: no roots, theta the identity."""
    rows = "".join(" ".join("1" if i == j else "0" for j in range(rank)) + "\n" for i in range(rank))
    return f"name: x\nrank: {rank}\nsimple:\ntheta:\n{rows}"


def test_a_rank_over_the_bound_is_refused_before_theta_is_squared(monkeypatch):
    # theta squared at rank 400 takes 64 million products, seconds of work;
    # the refusal squares nothing and reads each row of the 320 KB file once:
    # the rank, then the 400 rows of theta
    products, rows, ints = [], [], textio._ints
    monkeypatch.setattr(realform, "mat_mul", lambda a, b: products.append(a) or rootdata.mat_mul(a, b))
    monkeypatch.setattr(textio, "_ints", lambda tokens, *rest: rows.append(tokens) or ints(tokens, *rest))
    with pytest.raises(ValidationError, match=rf"^invalid involution 'x': rank 400 is over the bound of {MAX_RANK}$"):
        parse_involution(identity_involution_text(400))
    assert (len(products), len(rows)) == (0, 1 + 400)
    assert parse_involution(identity_involution_text(MAX_RANK)).datum.rank == MAX_RANK
    for name in catalog_names():
        assert parse_involution(format_involution(catalog(name))).theta == catalog(name).theta
    monkeypatch.setattr(realform, "mat_mul", None)  # the refusal comes before any product
    with pytest.raises(ValidationError, match=f"rank {MAX_RANK + 1} is over the bound"):
        parse_involution(identity_involution_text(MAX_RANK + 1))


def test_a_rank_over_the_bound_is_refused_before_the_datum_is_walked(monkeypatch):
    # an inline datum with roots (sl2 beside a rank-100 torus) costs a pair walk
    # to validate; over the bound it is refused before validate_root_datum runs
    def text(rank):
        unit = "1" + " 0" * (rank - 1)
        theta = "".join(" ".join("1" if i == j else "0" for j in range(rank)) + "\n" for i in range(rank))
        return (f"name: x\nrank: {rank}\nsimple: 0\nroots:\n2{unit[1:]}\n-2{unit[1:]}\n"
                f"coroots:\n{unit}\n-{unit}\ntheta:\n{theta}")

    walked, validate = [], rootdata.validate_root_datum
    monkeypatch.setattr(rootdata, "validate_root_datum", lambda datum: walked.append(datum) or validate(datum))
    with pytest.raises(ValidationError, match=rf"^invalid involution 'x': rank {MAX_RANK + 1} is over the bound"
                                              rf" of {MAX_RANK}$"):
        parse_involution(text(MAX_RANK + 1))
    assert walked == []
    assert parse_involution(text(MAX_RANK)).datum.rank == MAX_RANK and len(walked) == 1


def test_invalid_involution_rejected():
    text = SL2_TEXT.replace("name: sl2", "name: broken") + "theta:\n2\n"
    with pytest.raises(Exception, match="squared"):
        parse_involution(text)


def test_catalog_entries_round_trip_through_files():
    for name in catalog_names():
        entry = catalog(name)
        text = format_involution(entry)
        spec = parse_involution(text)
        assert spec.theta == entry.theta
        assert spec.datum.roots == entry.datum.roots
        assert spec.name == entry.name


def test_matrix_round_trip():
    g = lm_from_rows(
        "gl2_split",
        [
            [LaurentPoly.one(), LaurentPoly({-1: Gaussian(1, 0), 2: Gaussian(0, -1)})],
            [LaurentPoly.zero(), LaurentPoly.one()],
        ],
    )
    text = format_matrix(g)
    assert loops_equal(parse_matrix(text), g)


def test_matrix_identity_file():
    text = "form: gl2_split\nsize: 2\nentry 1 1: (0, 1/1, 0/1)\nentry 2 2: (0, 1/1, 0/1)\n"
    g = parse_matrix(text)
    assert loops_equal(g, diagonal_loop("gl2_split", (0, 0)))


def test_matrix_rationals_are_read_in_lowest_terms():
    text = "form: gl2_split\nsize: 2\nentry 1 1: (0, 1, 0)\nentry 1 2: (0, -6/4, 10/15) (2, 0/7, 3)\nentry 2 2: (0, 1, 0)\n"
    entry = parse_matrix(text).entries[0][1]
    assert entry == LaurentPoly({0: Gaussian(Fraction(-3, 2), Fraction(2, 3)), 2: Gaussian(0, 3)})


def test_matrix_parse_errors():
    with pytest.raises(ParseError, match="line 1"):
        parse_matrix("form: nonsense\nsize: 2\n")
    with pytest.raises(ParseError, match="size"):
        parse_matrix("form: gl2_split\nsize: 3\n")
    with pytest.raises(ParseError, match="line 3"):
        parse_matrix("form: gl2_split\nsize: 2\nentry 1 1: (0, 1/1, junk)\n")
    with pytest.raises(ParseError, match="duplicate entry"):
        parse_matrix(
            "form: gl2_split\nsize: 2\nentry 1 1: (0, 1/1, 0/1)\nentry 1 1: (0, 1/1, 0/1)\n"
        )
    with pytest.raises(ParseError, match=r"^line 3: bad rational '1/0'$"):
        parse_matrix("form: gl2_split\nsize: 2\nentry 1 1: (0, 1/0, 0/1)\n")
    with pytest.raises(ParseError, match="unparsed"):
        parse_matrix("form: gl2_split\nsize: 2\nentry 1 1: (0, 1/1, 0/1) leftover\n")
    # comment and blank lines still count towards the line number
    text = "# a loop\nform: gl2_split\n\nsize: 2  # square\n\n# entries\nentry 1 1: (0, 1/1, 0/1) (1, 1/1, 0/1\n"
    with pytest.raises(ParseError, match=r"^line 7: unparsed text in entry \(1, 1\): '\(0, 1/1, 0/1\) \(1, 1/1, 0/1'$"):
        parse_matrix(text)


def test_matrix_file_must_satisfy_form_invariant():
    # sl2 form demands determinant one
    text = "form: sl2_split\nsize: 2\nentry 1 1: (1, 1/1, 0/1)\nentry 2 2: (0, 1/1, 0/1)\n"
    with pytest.raises(Exception, match="determinant"):
        parse_matrix(text)


IDENTITY_MATRIX = "form: gl2_split\nsize: 2\nentry 1 1: (0, 1/1, 0/1)\nentry 2 2: (0, 1/1, 0/1)\n"
REFERENCE_INVOLUTION = "name: borrowed\ndatum: sl3_split\ntheta:\n0 1\n1 0\n"


@pytest.mark.parametrize(
    "parse, text, message",
    [
        (parse_matrix, "form: gl2_split\nsize: 2\nhello world\nentry 1 1: (0, 1, 0)\nentry 2 2: (0, 1, 0)\n",
         r"^line 3: expected 'key: value', got 'hello world'$"),
        (parse_matrix, IDENTITY_MATRIX + "foo: bar\n1 2 3\n", r"^line 5: unknown key 'foo' in matrix file$"),
        (parse_involution, REFERENCE_INVOLUTION.replace("\n", "\nbogus line here\nextra: 5\n", 1),
         r"^line 2: expected 'key: value', got 'bogus line here'$"),
        (parse_involution, REFERENCE_INVOLUTION + "extra: 5\n", r"^line 6: unknown key 'extra' in involution$"),
        (parse_matrix, "entry 1 1: (0, 1, 0)\n" + IDENTITY_MATRIX, r"^line 1: expected 'key: value'"),
        (parse_involution, "name: x\ndatum: sl3_split\nrank: 7\nsimple: 9\ntheta:\n0 1\n1 0\n",
         r"^line 3: inline datum field 'rank' next to a datum reference$"),
    ],
    ids=["matrix-stray-line", "matrix-unknown-key", "involution-stray-line", "involution-unknown-key", "entry-first",
         "involution-datum-conflict"],
)
def test_a_line_the_format_does_not_read_is_an_error(parse, text, message):
    with pytest.raises(ParseError, match=message):
        parse(text)


class _CountingText(str):
    """Text that counts the passes made over it through ``splitlines``."""

    passes = 0

    def splitlines(self, *args, **kwargs):
        self.passes += 1
        return super().splitlines(*args, **kwargs)


@pytest.mark.parametrize(
    "text", [SL2_TEXT.replace("name: sl2", "name: my_split") + "theta:\n1\n", REFERENCE_INVOLUTION],
    ids=["inline", "reference"],
)
def test_an_involution_file_is_scanned_once_and_validated_once(text, monkeypatch, cleared_caches):
    # cold caches: a reference is validated by its catalog lookup, and only there
    scans, validated = [], []
    sections, validate = textio._parse_sections, rootdata.validate_root_datum
    monkeypatch.setattr(textio, "_parse_sections", lambda *args: scans.append(args[1]) or sections(*args))
    monkeypatch.setattr(rootdata, "validate_root_datum", lambda datum: validated.append(datum.name) or validate(datum))
    text = _CountingText(text)
    parse_involution(text)
    assert (text.passes, scans, len(validated)) == (1, ["involution"], 1)


def test_a_matrix_file_is_scanned_once():
    text = _CountingText(IDENTITY_MATRIX)
    assert loops_equal(parse_matrix(text), diagonal_loop("gl2_split", (0, 0)))
    assert text.passes == 1


# ---------------------------------------------------------------------------
# the str-method line readers against the regular expressions they replace,
# and the entry reader against the two-pass reader it replaces

KEY_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)\s*:\s*(.*)$")
ENTRY_RE = re.compile(r"^entry\s+(\d+)\s+(\d+)\s*:\s*(.*)$")
TUPLE_RE = re.compile(r"\(\s*(-?\d+)\s*,\s*(-?\d+(?:/\d+)?)\s*,\s*(-?\d+(?:/\d+)?)\s*\)")

SEED_LINES = (
    "name: sl2",
    "rank :2",
    "theta:",
    "_x9: 1 -2  3",
    "form: u21",
    "entry 1 2: (0, 1/1, 0/1)",
    "entry 3 1: (-2, -3/4, 5/6) (1, 7, -1/25)",
    "entry 2 2:(0,1,0)(1, 2/3 ,-4)",
    "entry ١٢ ٣: ( ٣ , -١/٢ , 0 )",
    "entry 1 1: (1/2, 1, 0) ((2, 1/0, 3)",
    "(--1, 2, 3)(4,5,6)) (7, 8/, 9)",
)
# Unicode digits and spaces (none of them a line break), signs, slashes,
# parentheses, commas, colons and letters
MUTATION_ALPHABET = "0129-+/(),: \t  　\x1f٣７²½ex_#"


def _mutated_lines(count, seed, seeds=SEED_LINES):
    rng = random.Random(seed)
    for _ in range(count):
        line = list(rng.choice(seeds))
        for _ in range(rng.randint(1, 4)):
            k = rng.randrange(len(line) + 1)
            action = rng.random()
            if action < 0.4:
                line.insert(k, rng.choice(MUTATION_ALPHABET))
            elif action < 0.7 and k < len(line):
                del line[k]
            elif k < len(line):
                line[k] = rng.choice(MUTATION_ALPHABET)
        # as the section reader sees a line: comment cut off, stripped
        yield "".join(line).split("#", 1)[0].strip()


def test_line_readers_match_the_regular_expressions():
    accepted = {"key": 0, "entry": 0}
    for line in _mutated_lines(4000, "textio-readers"):
        m = KEY_RE.match(line)
        assert textio._key_line(line) == (m and (m.group(1), m.group(2).strip())), line
        m = ENTRY_RE.match(line)
        assert textio._entry_line(line, 1) == (m and (int(m.group(1)), int(m.group(2)), m.group(3).strip())), line
        accepted["key"] += KEY_RE.match(line) is not None
        accepted["entry"] += ENTRY_RE.match(line) is not None
    # the mutations keep many lines readable, so both outcomes are compared
    assert min(accepted.values()) > 400, accepted


def _two_pass_tuples(text):
    """The ``(e, re, im)`` tuples in text, each as its source and its three
    tokens: a ``(`` that starts none is passed over, so a tuple may sit inside
    other text, as with the regular expression this scan replaced."""
    found = []
    start = text.find("(")
    while start >= 0 and (end := text.find(")", start)) >= 0:
        tokens = [token.strip() for token in text[start + 1:end].split(",")]
        if len(tokens) == 3 and all(textio._is_number(token, k > 0) for k, token in enumerate(tokens)):
            found.append((text[start:end + 1], *tokens))
            start = text.find("(", end)
        else:
            start = text.find("(", start + 1)
    return found


def _two_pass_rational(token, lineno):
    num, _, den = token.partition("/")
    if den and not int(den):
        raise ParseError(lineno, f"bad rational {token!r}")
    return int(num), int(den or 1)


def _stray(rest):
    """Whether text other than spaces lies outside the tuples the scan finds."""
    return rest.replace(" ", "") != "".join(source.replace(" ", "") for source, *_ in _two_pass_tuples(rest))


def _two_pass_entry(rest, lineno, i, j):
    """The entry reader ``textio._entry`` replaced, as an oracle: it reads every
    tuple the scan finds, then refuses what is left over if it is not spaces."""
    matches = _two_pass_tuples(rest)
    coeffs = {}
    for _, exponent, re_part, im_part in matches:
        e = int(exponent)
        p, q = _two_pass_rational(re_part, lineno)
        r, s = _two_pass_rational(im_part, lineno)
        if e in coeffs:
            raise ParseError(lineno, f"duplicate exponent {e} in entry ({i}, {j})")
        coeffs[e] = Gaussian(p * s, r * q) / Gaussian(q * s)
    if _stray(rest):
        raise ParseError(lineno, f"unparsed text in entry ({i}, {j}): {rest!r}")
    return LaurentPoly(coeffs)


def _outcome(read, *args):
    try:
        return read(*args)
    except ParseError as exc:
        return str(exc)


def _same_or_stray_first(rest, new, old):
    """The readers agree, but where a line with stray text also holds a bad
    rational or a duplicate exponent: the two-pass reader names the latter,
    the one-pass reader the first fault it meets, which may be the text."""
    if new == old:
        return True
    return (isinstance(old, str) and isinstance(new, str) and _stray(rest)
            and re.match(r"line \d+: (bad rational|duplicate exponent)", old) is not None
            and new.startswith(f"{old.split(':')[0]}: unparsed text in entry"))


def test_entry_reader_matches_the_two_pass_reader():
    tally = {"accepted": 0, "refused alike": 0, "stray text first": 0}
    for line in _mutated_lines(6000, "textio-entries", [line for line in SEED_LINES if "(" in line]):
        rest = entry[2] if (entry := textio._entry_line(line, 3)) else line
        assert _two_pass_tuples(rest) == [m.group(0, 1, 2, 3) for m in TUPLE_RE.finditer(rest)], rest
        new, old = _outcome(textio._entry, rest, 3, 1, 2), _outcome(_two_pass_entry, rest, 3, 1, 2)
        assert _same_or_stray_first(rest, new, old), (line, new, old)
        tally["accepted" if isinstance(new, LaurentPoly) else "refused alike" if new == old else "stray text first"] += 1
    # both outcomes, and the one deliberate difference, are reached often
    assert tally["accepted"] > 300 and tally["refused alike"] > 3000 and tally["stray text first"] > 300, tally


def _read_both(text):
    """parse_matrix's outcome with the one-pass entry reader and with the
    two-pass one: a loop, or the error text."""
    new = _outcome(parse_matrix, text)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(textio, "_entry", _two_pass_entry)
        return new, _outcome(parse_matrix, text)


def test_matrix_files_read_alike_by_both_entry_readers(monkeypatch):
    files = [
        format_matrix(loop(form, seed))
        for form in form_names() for seed in range(2) for loop in (random_real_loop, random_k_loop, random_polynomial_loop)
    ]
    for text in files:
        new, old = _read_both(text)
        assert loops_equal(new, old) and format_matrix(new) == text
    # one line of a file mutated, with the determinant check off so that only
    # the readers are compared
    monkeypatch.setattr(FormAction, "validate", lambda self, g: None)
    rng, tally = random.Random("textio-files"), {"accepted": 0, "refused alike": 0}
    for text in files * 30:
        lines = text.splitlines()
        k = rng.randrange(2, len(lines))
        line = list(lines[k])
        for _ in range(rng.randint(1, 3)):
            line.insert(rng.randrange(len(line) + 1), rng.choice(MUTATION_ALPHABET.replace("#", "")))
        lines[k] = "".join(line)
        new, old = _read_both("\n".join(lines) + "\n")
        if isinstance(new, str):
            rest = entry[2] if (entry := textio._entry_line(lines[k].strip(), k + 1)) else ""
            assert _same_or_stray_first(rest, new, old), (lines[k], new, old)
            tally["refused alike"] += new == old
        else:
            tally["accepted"] += 1
            assert format_matrix(new) == format_matrix(old), lines[k]
    assert tally["accepted"] > 50 and tally["refused alike"] > 600, tally
