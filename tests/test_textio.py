"""Structured-text round trips and parse errors with line numbers."""

import random
import re
from fractions import Fraction

import pytest

from matsuki import rootdata, textio
from matsuki.errors import ParseError
from matsuki.loopmatrix import (
    Gaussian,
    LaurentPoly,
    diagonal_loop,
    lm_from_rows,
    loops_equal,
)
from matsuki.realform import catalog, catalog_names
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


def test_involution_with_inline_datum():
    text = SL2_TEXT.replace("name: sl2", "name: my_split") + "theta:\n1\n"
    spec = parse_involution(text)
    assert spec.name == "my_split"
    assert spec.theta == ((1,),)


def test_involution_with_catalog_reference():
    spec = parse_involution("name: borrowed\ndatum: sl3_split\ntheta:\n0 1\n1 0\n")
    assert spec.datum.rank == 2
    assert spec.theta == ((0, 1), (1, 0))


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
# the str-method line readers against the regular expressions they replace

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


def _mutated_lines(count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        line = list(rng.choice(SEED_LINES))
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
    accepted = {"key": 0, "entry": 0, "tuples": 0}
    for line in _mutated_lines(4000, "textio-readers"):
        m = KEY_RE.match(line)
        assert textio._key_line(line) == (m and (m.group(1), m.group(2).strip())), line
        m = ENTRY_RE.match(line)
        assert textio._entry_line(line) == (m and (int(m.group(1)), int(m.group(2)), m.group(3).strip())), line
        want = [m.group(0, 1, 2, 3) for m in TUPLE_RE.finditer(line)]
        assert textio._tuples(line) == want, line
        accepted["key"] += KEY_RE.match(line) is not None
        accepted["entry"] += ENTRY_RE.match(line) is not None
        accepted["tuples"] += bool(want)
    # the mutations keep many lines readable, so both outcomes are compared
    assert min(accepted.values()) > 400, accepted
