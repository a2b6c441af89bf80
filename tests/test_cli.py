"""Command-line behavior: deterministic reports, exit codes, file handling."""

import contextlib
import io
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from matsuki import cli
from matsuki.cli import main
from matsuki.errors import TheoremViolationError
from matsuki.loopmatrix import form_action, form_names
from matsuki.realform import InvolutionSpec, catalog_names
from matsuki.rootdata import gl_datum
from matsuki.textio import format_involution

IDENTITY_FILE = "form: gl2_split\nsize: 2\nentry 1 1: (0, 1/1, 0/1)\nentry 2 2: (0, 1/1, 0/1)\n"
SHEAR_FILE = (
    "form: gl2_split\nsize: 2\n"
    "entry 1 1: (0, 1/1, 0/1)\nentry 1 2: (-1, 1/1, 0/1)\nentry 2 2: (0, 1/1, 0/1)\n"
)


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_catalog_lists_all_entries(capsys):
    rc, out, _ = run(capsys, ["catalog"])
    assert rc == 0
    assert "pgl2_so21" in out
    assert out.count("\n") == 10


def test_catalog_single_entry(capsys):
    rc, out, _ = run(capsys, ["catalog", "--name", "sl2_split"])
    assert rc == 0
    assert "expected_k_connected: true" in out
    assert "theta:" in out


def test_catalog_export_round_trips(capsys, tmp_path):
    rc, out, _ = run(capsys, ["catalog", "--export", str(tmp_path)])
    assert rc == 0
    path = tmp_path / "su21.involution"
    assert path.exists()
    rc, out, _ = run(capsys, ["orbits", str(path), "--height", "8"])
    assert rc == 0
    assert "note: non-catalog involution" not in out  # same data as the catalog entry


def test_orbits_report_is_deterministic(capsys):
    rc, first, _ = run(capsys, ["orbits", "pgl2_so21", "--height", "8"])
    rc2, second, _ = run(capsys, ["orbits", "pgl2_so21", "--height", "8"])
    assert rc == rc2 == 0
    assert first == second
    assert "count: 5" in first
    assert "image_index: 2" in first


def test_orbits_compact_form(capsys):
    rc, out, _ = run(capsys, ["orbits", "sl2_compact", "--height", "100"])
    assert rc == 0
    assert "count: 1" in out


def test_orbits_split_height_four(capsys):
    rc, out, _ = run(capsys, ["orbits", "sl2_split", "--height", "4"])
    assert rc == 0
    assert "count: 3" in out


@pytest.mark.parametrize(
    "spec, height, refusal",
    [("gl3_split", "400", "3 of 3"), ("gl3_split", "1000", "3 of 3"), ("sl3_split", "100000000", "1 of 2"),
     ("sl2_split", "4999999", "1 of 1")],
    ids=["gl3_split-400", "gl3_split-1000", "sl3_split-1e8", "sl2_split-4999999"],
)
def test_orbits_over_the_budget_exit_one_at_once(capsys, spec, height, refusal):
    start = time.perf_counter()
    rc, out, err = run(capsys, ["orbits", spec, "--height", height])
    assert time.perf_counter() - start < 1
    assert rc == 1 and out == ""
    assert err == f"error: height bound {height} leaves over 1000000 candidates for coefficient {refusal}\n"


def test_an_involution_over_the_rank_bound_exits_one(capsys, tmp_path):
    path = tmp_path / "big.involution"
    theta = "".join(f"{'0 ' * i}1{' 0' * (399 - i)}\n" for i in range(400))
    path.write_text(f"name: big\nrank: 400\nsimple:\ntheta:\n{theta}")
    rc, out, err = run(capsys, ["orbits", str(path)])
    assert (rc, out, err) == (1, "", "error: invalid involution 'big': rank 400 is over the bound of 100\n")


@pytest.mark.parametrize(
    "argv", [["orbits", "gl2_split", "--height", "6"], ["poset", "gl3_split", "--height", "4", "--order", "R"],
             ["poset", "pgl2_so21", "--height", "8", "--format", "graph"]],
    ids=["orbits", "poset", "poset-graph"],
)
def test_a_slice_report_is_written_in_one_call(monkeypatch, argv):
    writes = []

    class Recorder:
        def write(self, text):
            writes.append(text)
            return len(text)

    monkeypatch.setattr(sys, "stdout", Recorder())
    assert main(argv) == 0
    assert len(writes) == 1 and writes[0].count("\n") >= 4


def test_poset_graph_chain(capsys):
    rc, out, _ = run(capsys, ["poset", "pgl2_so21", "--height", "8", "--format", "graph"])
    assert rc == 0
    assert out.splitlines() == ["(0) -> (2)", "(2) -> (4)", "(4) -> (6)", "(6) -> (8)"]


def test_poset_height_zero_single_node(capsys):
    rc, out, _ = run(capsys, ["poset", "pgl2_so21", "--height", "0"])
    assert rc == 0
    assert "elements: 1" in out
    assert "edges: 0" in out


def test_poset_sl3_report(capsys):
    rc, out, _ = run(capsys, ["poset", "sl3_split", "--height", "6"])
    assert rc == 0
    # elements: 0, the two simple coroots' dominant companions, and the sums
    assert "element: (1,1)" in out
    assert "image_index: 1" in out
    lines = out.splitlines()
    elements = {l.split(": ")[1] for l in lines if l.startswith("element:")}
    for l in lines:
        if l.startswith("edge:"):
            a, b = l.split(": ")[1].split(" -> ")
            assert a in elements and b in elements


def test_poset_r_order_reverses_edges(capsys):
    _, k_out, _ = run(capsys, ["poset", "sl2_split", "--height", "4", "--format", "graph"])
    _, r_out, _ = run(
        capsys, ["poset", "sl2_split", "--height", "4", "--format", "graph", "--order", "R"]
    )
    k_edges = {tuple(line.split(" -> ")) for line in k_out.splitlines()}
    r_edges = {tuple(line.split(" -> ")) for line in r_out.splitlines()}
    assert r_edges == {(b, a) for a, b in k_edges}


def test_dual_report(capsys):
    rc, out, _ = run(capsys, ["dual", "pgl2_so21", "2"])
    assert rc == 0
    assert "dual: (2)" in out
    assert "core_flag_dimension: 1" in out


def test_dual_rejects_non_member_with_reason(capsys):
    rc, _, err = run(capsys, ["dual", "pgl2_so21", "1"])
    assert rc == 1
    assert "image" in err
    rc, _, err = run(capsys, ["dual", "pgl2_so21", "-2"])
    assert rc == 1
    assert "dominant" in err


def test_pi1_reports(capsys):
    rc, out, _ = run(capsys, ["pi1", "sl2_split"])
    assert rc == 0
    assert "pi1_group: 1" in out
    assert "image_index: 1" in out
    rc, out, _ = run(capsys, ["pi1", "pgl2_so21"])
    assert "pi1_group: Z/2" in out
    assert "pi1_space: Z/2" in out
    assert "image_index: 2" in out


def test_core_command(capsys):
    rc, out, _ = run(capsys, ["core", "sl3_split", "1", "1"])
    assert rc == 0
    assert "flag_dimension: 3" in out
    assert "parabolic_simple_roots: none" in out


def test_dual_and_core_print_the_same_core(capsys):
    assert run(capsys, ["dual", "gl3_split", "2", "0", "0"]) == (0, (
        "spec: gl3_split\norbit: (2,0,0)\ndual: (2,0,0)\ncore_parabolic_simple_roots: 3\ncore_flag_dimension: 2\n"
    ), "")
    assert run(capsys, ["core", "gl3_split", "2", "0", "0"]) == (0, (
        "spec: gl3_split\norbit: (2,0,0)\nparabolic_simple_roots: 3\nflag_dimension: 2\n"
    ), "")


def test_invariant_identity_file(capsys, tmp_path):
    path = tmp_path / "id.matrix"
    path.write_text(IDENTITY_FILE)
    rc, out, _ = run(capsys, ["invariant", str(path)])
    assert rc == 0
    assert "cartan: (0,0)" in out
    assert "birkhoff: (0,0)" in out
    assert "k_orbit: (0,0)" in out
    assert "r_orbit: (0,0)" in out


def test_invariant_shear_file(capsys, tmp_path):
    path = tmp_path / "shear.matrix"
    path.write_text(SHEAR_FILE)
    rc, out, _ = run(capsys, ["invariant", str(path)])
    assert rc == 0
    assert "cartan: (1,-1)" in out
    assert "birkhoff: (0,0)" in out


def test_invariant_geodesic_file(capsys, tmp_path):
    from matsuki.loopmatrix import geodesic_representative
    from matsuki.textio import format_matrix

    path = tmp_path / "geodesic.matrix"
    path.write_text(format_matrix(geodesic_representative("gl2_split", (1, 1))))
    rc, out, _ = run(capsys, ["invariant", str(path)])
    assert rc == 0
    assert "k_orbit: (1,1)" in out
    assert "r_orbit: (1,1)" in out


def test_invariant_parse_error_exit_code(capsys, tmp_path):
    path = tmp_path / "bad.matrix"
    path.write_text("form: gl2_split\nsize: 2\nentry 1 1: nonsense\n")
    rc, _, err = run(capsys, ["invariant", str(path)])
    assert rc == 1
    assert "line 3" in err


@pytest.mark.parametrize(
    "command, name, text, message",
    [
        ("invariant", "stray.matrix", IDENTITY_FILE.replace("size: 2\n", "size: 2\nhello world\n"),
         "line 3: expected 'key: value', got 'hello world'"),
        ("orbits", "stray.involution", "name: borrowed\nextra: 5\ndatum: sl3_split\ntheta:\n0 1\n1 0\n",
         "line 2: unknown key 'extra' in involution"),
        ("orbits", "conflict.involution", "name: x\ndatum: sl3_split\nrank: 7\nsimple: 9\ntheta:\n0 1\n1 0\n",
         "line 3: inline datum field 'rank' next to a datum reference"),
    ],
    ids=["matrix", "involution", "involution-datum-conflict"],
)
def test_a_line_the_format_does_not_read_exits_one(capsys, tmp_path, command, name, text, message):
    path = tmp_path / name
    path.write_text(text)
    rc, out, err = run(capsys, [command, str(path)])
    assert (rc, out, err) == (1, "", f"error: {message}\n")


SL2_FILE = "name: x\nrank: 1\nsimple: 0\nroots:\n2\n-2\ncoroots:\n1\n-1\ntheta:\n1\n"
GL2_FILE = "name: g\nrank: 2\nsimple: 0\nroots:\n1 -1\n-1 1\ncoroots:\n1 -1\n-1 1\ntheta:\n1 0\n0 1\n"
HALF_GL2_FILE = GL2_FILE.replace("name: g", "name: h").replace("-1 1\n", "-1 1\n1 1\n-1 -1\n")
GL4_SWAP23_FILE = format_involution(
    InvolutionSpec(gl_datum(4), ((1, 0, 0, 0), (0, 0, 1, 0), (0, 1, 0, 0), (0, 0, 0, 1)), name="gl4_swap23"))
CATALOG = ", ".join(catalog_names())


@pytest.mark.parametrize(
    "argv, text, message",
    [
        # the file formats; every ParseError but the whole-file ones carries its line
        pytest.param(["pi1"], SL2_FILE.replace("rank: 1\n", "rank: 1\nname: y\n"), "line 3: duplicate key 'name'",
                     id="duplicate-key"),
        pytest.param(["pi1"], SL2_FILE.replace("theta:\n1\n", "theta: 1\n"),
                     "line 10: 'theta' must introduce a matrix block, not an inline value", id="inline-block"),
        pytest.param(["pi1"], SL2_FILE.replace("theta:\n1\n", "theta:\n"), "line 10: matrix block 'theta' is empty",
                     id="empty-block"),
        pytest.param(["pi1"], GL2_FILE.replace("-1 1\n", "-1\n", 1), "line 6: ragged row in matrix block 'roots'",
                     id="ragged-row"),
        pytest.param(["pi1"], SL2_FILE.replace("coroots:\n1\n-1\n", ""),
                     "line 0: roots and coroots must be given together", id="roots-alone"),
        pytest.param(["pi1"], "name: x\ndatum: nosuch\ntheta:\n1\n",
                     f"line 2: unknown catalog entry 'nosuch'; available: {CATALOG}", id="unknown-reference"),
        pytest.param(["pi1"], "name: x\ntheta:\n1\n",
                     "line 0: involution file needs either inline datum fields or a datum reference", id="no-datum"),
        pytest.param(["invariant"], "form: gl2_split\nsize: two\n", "line 2: size must be an integer, got 'two'",
                     id="non-integer-size"),
        pytest.param(["invariant"], IDENTITY_FILE + "entry 3 1: (0, 1/1, 0/1)\n",
                     "line 5: entry (3, 1) outside a 2x2 matrix", id="entry-outside"),
        pytest.param(["invariant"], IDENTITY_FILE.replace("(0, 1/1, 0/1)", "(0, 1/1, 0/1) (0, 2/1, 0/1)", 1),
                     "line 3: duplicate exponent 0 in entry (1, 1)", id="duplicate-exponent"),
        # an inline datum that validate_root_datum refuses
        pytest.param(["pi1"], "name: z\nrank: 0\nsimple:\ntheta:\n1\n",
                     "invalid root datum 'z': rank must be a positive integer", id="rank-0"),
        pytest.param(["pi1"], SL2_FILE.replace("coroots:\n1\n-1\n", "coroots:\n1\n"),
                     "invalid root datum 'x': roots and coroots must be index-paired lists of equal length",
                     id="unequal-counts"),
        pytest.param(["pi1"], GL2_FILE.replace("rank: 2", "rank: 3"),
                     "invalid root datum 'g': vector (1, -1) does not have length rank=3", id="vector-length"),
        pytest.param(["pi1"], SL2_FILE.replace("simple: 0", "simple: 0 0"),
                     "invalid root datum 'x': simple_indices contains duplicates; simple roots are linearly dependent",
                     id="duplicate-simple"),
        pytest.param(["pi1"], SL2_FILE.replace("simple: 0", "simple: 5"),
                     "invalid root datum 'x': simple_indices out of range", id="simple-out-of-range"),
        pytest.param(["pi1"], SL2_FILE.replace("coroots:\n1\n-1\n", "coroots:\n1\n1\n"),
                     "invalid root datum 'x': coroot list contains duplicates; reflection at simple root 0 does not"
                     " permute the coroot set (image of (1,) missing)", id="duplicate-coroots"),
        pytest.param(["pi1"], HALF_GL2_FILE, "invalid root datum 'h': root (1, 1) lies outside the span of the simple"
                     " roots; root (-1, -1) lies outside the span of the simple roots", id="root-outside-span"),
        pytest.param(["pi1"], SL2_FILE.replace("2\n-2\ncoroots:\n1\n-1\n", "2\n-2\n1\n-1\ncoroots:\n1\n-1\n2\n-2\n"),
                     "invalid root datum 'x': root (1,) is not a signed non-negative integer combination of simples;"
                     " root (-1,) is not a signed non-negative integer combination of simples", id="half-root"),
        # an involution that validate_involution refuses, on a datum reference
        pytest.param(["pi1"], "name: bad\ndatum: sl3_split\ntheta:\n1 0 0\n0 1 0\n0 0 1\n",
                     "invalid involution 'bad': theta must be a 2x2 integer matrix", id="theta-shape-on-reference"),
        pytest.param(["pi1"], "name: swap13\ndatum: gl3_split\ntheta:\n0 0 1\n0 1 0\n1 0 0\n",
                     "invalid involution 'swap13': Araki's first condition fails: w_M theta sends the simple coroot"
                     " (1, -1, 0) to (0, -1, 1), which is not simple", id="positivity"),
        # command arguments
        pytest.param(["dual", "sl3_split", "1", "x"], None, "coweight coordinates must be integers, got ['1', 'x']",
                     id="dual-non-integer"),
        pytest.param(["dual", "sl3_split", "1"], None, "expected 2 coordinates, got 1", id="dual-count"),
        pytest.param(["core", "sl3_split", "1", "x"], None, "coweight coordinates must be integers, got ['1', 'x']",
                     id="core-non-integer"),
        pytest.param(["core", "sl3_split", "1", "2", "3"], None, "expected 2 coordinates, got 3", id="core-count"),
        pytest.param(["check", "nosuch"], None, "check runs on catalog entries; unknown 'nosuch'",
                     id="check-non-catalog"),
        pytest.param(["orbits", "sl3_split", "--height", "-1"], None, "height bound must be non-negative",
                     id="orbits-negative-height"),
        # an involution that passes every check but Araki's second: gl4 with e2 and e3 swapped
        pytest.param(["poset"], GL4_SWAP23_FILE, "invalid involution 'gl4_swap23': Araki's second condition fails:"
                     " w_M theta fixes the simple coroot (1, -1, 0, 0) outside M, and <alpha_0, 2 rho_M^vee> = -1"
                     " is odd", id="araki-second"),
    ],
)
def test_each_refusal_exits_one_with_one_line(capsys, tmp_path, argv, text, message):
    if text is not None:
        path = tmp_path / "input"
        path.write_text(text)
        argv = [*argv, str(path)]
    rc, out, err = run(capsys, argv)
    assert (rc, out, err) == (1, "", f"error: {message}\n")


LONG = "7" * 5000  # past Python's 4,300-digit limit on reading an int


@pytest.mark.parametrize(
    "argv, text, lineno",
    [
        (["invariant"], IDENTITY_FILE.replace("size: 2", f"size: {LONG}"), 2),
        (["invariant"], IDENTITY_FILE.replace("entry 1 1", f"entry {LONG} 1"), 3),
        (["invariant"], IDENTITY_FILE.replace("entry 1 1", f"entry 1 {LONG}"), 3),
        (["invariant"], IDENTITY_FILE.replace("(0, 1/1", f"({LONG}, 1/1", 1), 3),
        (["invariant"], IDENTITY_FILE.replace("(0, 1/1", f"(0, {LONG}/1", 1), 3),
        (["invariant"], IDENTITY_FILE.replace("(0, 1/1", f"(0, 1/{LONG}", 1), 3),
        (["pi1"], SL2_FILE.replace("rank: 1", f"rank: {LONG}"), 2),
        (["pi1"], SL2_FILE.replace("simple: 0", f"simple: {LONG}"), 3),
        (["pi1"], SL2_FILE.replace("roots:\n2\n", f"roots:\n{LONG}\n"), 5),
        (["pi1"], SL2_FILE.replace("coroots:\n1\n", f"coroots:\n{LONG}\n"), 8),
        (["pi1"], SL2_FILE.replace("theta:\n1\n", f"theta:\n{LONG}\n"), 11),
    ],
    ids=["size", "entry-row", "entry-column", "exponent", "numerator", "denominator",
         "rank", "simple", "roots", "coroots", "theta"],
)
def test_an_integer_past_the_digit_limit_is_one_error_line(capsys, tmp_path, argv, text, lineno):
    path = tmp_path / "input"
    path.write_text(text)
    rc, out, err = run(capsys, [*argv, str(path)])
    assert (rc, out, err.count("\n")) == (1, "", 1)
    assert err.startswith(f"error: line {lineno}: ") and err.endswith("\n")


def test_unknown_spec_exit_code(capsys):
    rc, _, err = run(capsys, ["orbits", "not_a_form"])
    assert rc == 1
    assert "neither a catalog name" in err


def test_theorem_violation_exit_code(capsys, tmp_path, monkeypatch):
    # force an inconsistent invariant to exercise the diagnostic path
    import matsuki.loopmatrix as loopmatrix

    def broken(_g):
        raise TheoremViolationError("forced for the test")

    monkeypatch.setattr(loopmatrix, "k_orbit_invariant", broken)
    path = tmp_path / "id.matrix"
    path.write_text(IDENTITY_FILE)
    rc, _, err = run(capsys, ["invariant", str(path)])
    assert rc == 2
    assert "theorem violation" in err


def test_splitting_failure_exits_two_without_traceback(capsys, tmp_path, monkeypatch):
    import matsuki.loopmatrix as loopmatrix

    # a kernel step that never lowers a column degree, planted where the reduction needs a step
    monkeypatch.setattr(loopmatrix, "_kernel_vector", lambda m: [(1, 0)] + [(0, 0)] * (len(m) - 1))
    path = tmp_path / "shear.matrix"  # [[t, 1], [0, 1/t]]: column degrees 1 and 0 above the exponent 0
    path.write_text("form: gl2_split\nsize: 2\n"
                    "entry 1 1: (1, 1/1, 0/1)\nentry 1 2: (0, 1/1, 0/1)\nentry 2 2: (-1, 1/1, 0/1)\n")
    rc, out, err = run(capsys, ["invariant", str(path)])
    assert rc == 2
    assert err.startswith("theorem violation: column reduction") and "Traceback" not in err
    assert out.splitlines()[-1] == "cartan: (1,-1)"  # the Birkhoff line is the first to reduce


def test_check_single_entry(capsys):
    rc, out, _ = run(capsys, ["check", "sl2_compact"])
    assert rc == 0
    assert "check: all suites passed" in out


def test_check_output_is_byte_identical_across_runs(capsys):
    rc1, first, _ = run(capsys, ["check", "sl2_split", "--seed", "3"])
    rc2, second, _ = run(capsys, ["check", "sl2_split", "--seed", "3"])
    assert rc1 == rc2 == 0
    assert first == second


@pytest.mark.parametrize("seed", ["0", "7"])
def test_check_all_runs_every_suite_on_every_entry(capsys, seed):
    matrix_entries = {form_action(name).entry for name in form_names()}
    expected = []
    for name in catalog_names():
        suites = ["generation", "duality", "step-order", "hasse-closure"]
        suites += ["chain-structure"] * (name == "pgl2_so21") + ["matrix-invariance"] * (name in matrix_entries)
        expected += [f"suite {name}/{suite}: PASS\n" for suite in suites]
    assert run(capsys, ["check", "--all", "--seed", seed]) == (0, "".join(expected) + "check: all suites passed\n", "")


def test_check_requires_spec_or_all(capsys):
    rc, _, err = run(capsys, ["check"])
    assert rc == 1
    assert "--all" in err


USAGE_ERRORS = [
    ["poset", "sl2_split", "--order", "X"],
    ["orbits", "gl2_split", "--height", "abc"],
    ["dual", "sl2_compact"],
    [],
]


@pytest.mark.parametrize("argv", USAGE_ERRORS, ids=["bad-choice", "bad-int", "missing-argument", "no-command"])
def test_usage_errors_exit_one_with_argparse_text(capsys, argv):
    # exit 2 is a failed structural law; the message is argparse's own, byte for byte
    with pytest.raises(SystemExit) as raised:
        main(argv)
    ours = capsys.readouterr()
    with pytest.raises(SystemExit) as plain:
        cli.build_parser().parse_args(argv)
    theirs = capsys.readouterr()
    assert (raised.value.code, plain.value.code) == (1, 2)
    assert ours.out == theirs.out == ""
    assert ours.err == theirs.err and ours.err.startswith("usage: matsuki")


@pytest.mark.parametrize("argv", [["--help"], ["poset", "--help"]], ids=["main", "subcommand"])
def test_help_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as raised:
        main(argv)
    assert raised.value.code == 0
    assert capsys.readouterr().out.startswith("usage: matsuki")


def test_pi1_flags_a_non_catalog_file(capsys, tmp_path):
    path = tmp_path / "renamed.involution"
    path.write_text("name: renamed\ndatum: sl3_split\ntheta:\n1 0\n0 1\n")
    rc, out, err = run(capsys, ["pi1", str(path)])
    assert (rc, err) == (0, "")
    assert out.startswith("spec: renamed\n")
    assert out.endswith("image_index: 1\nnote: non-catalog involution; lattice-level models are best-effort\n")


def test_non_catalog_file_is_flagged(capsys, tmp_path):
    text = (
        "name: custom_split\nrank: 1\nsimple: 0\nroots:\n2\n-2\ncoroots:\n1\n-1\ntheta:\n1\n"
    )
    path = tmp_path / "custom.involution"
    path.write_text(text)
    rc, out, _ = run(capsys, ["orbits", str(path), "--height", "4"])
    assert rc == 0
    assert "note: non-catalog involution" in out


@pytest.mark.parametrize(
    "argv, target",
    [
        (["invariant"], "dir"),
        (["orbits"], "dir"),
        (["catalog", "--export"], "file"),
        (["invariant"], "latin1"),
        (["pi1"], "latin1"),
    ],
    ids=["invariant-directory", "orbits-directory", "export-onto-file", "invariant-not-utf8", "pi1-not-utf8"],
)
def test_file_errors_exit_one_without_traceback(capsys, tmp_path, argv, target):
    path = tmp_path
    if target == "file":
        path = tmp_path / "taken"
        path.write_text("x")
    elif target == "latin1":
        path = tmp_path / "bad.matrix"
        path.write_bytes("form: gl2_split\nname: caf\xe9\n".encode("latin-1"))
    rc, out, err = run(capsys, argv + [str(path)])
    assert rc == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


# ---------------------------------------------------------------------------
# the grammar table and its two readers

ROOT = Path(__file__).resolve().parent.parent
OPTIONS = sorted({flag for _, _, arguments in cli.COMMANDS.values() for flag, _ in arguments if flag.startswith("-")})
WORDS = ["sl2_split", "gl2_split", "pgl2_so21", "x", "", "report", "graph", "K", "R", "X"]
MALFORMED_INTS = ["-", "--5", "-1.5", "1e3", "1_0", " 7", "+4", "abc", "-x y", "-5\n", "٣", "-٣", "9" * 5000]
VALUES = st.one_of(st.integers(-30, 30).map(str), st.sampled_from(MALFORMED_INTS), st.sampled_from(WORDS))
TOKENS = st.one_of(
    st.sampled_from(list(cli.COMMANDS)), st.sampled_from(OPTIONS + ["--he", "--height=3", "-h", "--help", "--"]), VALUES
)


def _piece(flag, kwargs):
    """Tokens for one argument of the table: words for a positional, the
    flag and a value for an option."""
    if not flag.startswith("-"):
        return st.lists(VALUES, min_size=1, max_size=3 if kwargs.get("nargs") == "+" else 1)
    if kwargs.get("action") == "store_true":
        return st.just([flag])
    return VALUES.map(lambda value: [flag, value])


def _command_argv(name):
    """argv for the command: its name, then each of its arguments or none,
    and one token of any kind or none, in any order."""
    pieces = [st.one_of(st.just([]), _piece(flag, kwargs)) for flag, kwargs in cli.COMMANDS[name][2]]
    pieces.append(st.lists(TOKENS, max_size=1))
    shuffled = st.tuples(*pieces).flatmap(st.permutations)
    return shuffled.map(lambda pieces: [name, *(token for piece in pieces for token in piece)])


COMMAND_ARGV = st.sampled_from(list(cli.COMMANDS)).flatmap(_command_argv)
ARGV = st.one_of(COMMAND_ARGV, COMMAND_ARGV, COMMAND_ARGV, st.lists(TOKENS, max_size=6))
PARSER = cli.build_parser()


def _argparse_vars(argv):
    """vars() of argparse's namespace for argv, or None where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(PARSER.parse_args(argv))
        except SystemExit:
            return None


@settings(max_examples=500, deadline=None)
@given(ARGV)
@example(["poset", "x", "--order", "X"])
@example(["orbits", "x", "--he", "3"])
@example(["orbits", "x", "--height=3"])
@example(["check", "--", "-3"])
@example(["dual", "x", "-1", "-h"])
def test_table_reader_reads_what_argparse_reads_or_declines(argv):
    ours = cli._read_table(argv)
    assert ours is None or vars(ours) == _argparse_vars(argv)


def test_workload_commands_never_fall_back_to_argparse(tmp_path):
    # the shapes of one command per fresh process, which the table reader serves
    matrix = tmp_path / "loop.matrix"
    shapes = [
        ["catalog"], ["catalog", "--name", "su21"], ["catalog", "--export", str(tmp_path)],
        ["pi1", str(tmp_path / "su21.involution")], ["pi1", "gl2_split"],
        ["dual", "gl2_split", "1", "-1"], ["core", "gl3_split", "2", "0", "-2"],
        ["orbits", "sl3_split", "--height", "16"],
        ["poset", "gl2_split", "--height", "8", "--order", "K"], ["poset", "su21", "--height", "4", "--order", "R"],
        ["poset", "pgl2_so21", "--height", "20"],
        ["check", "sl2_compact", "--seed", "42"], ["invariant", str(matrix)],
    ]
    for argv in shapes:
        ours = cli._read_table(argv)
        assert ours is not None, argv
        assert vars(ours) == _argparse_vars(argv)


HELP_ARGV = [[]] + [[name] for name in cli.COMMANDS]


@pytest.mark.parametrize("argv", HELP_ARGV, ids=lambda argv: argv[0] if argv else "matsuki")
def test_help_text_is_pinned(argv):
    # captured at 80 columns from the argparse code that preceded the table
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), COLUMNS="80")
    result = subprocess.run(
        [sys.executable, "-B", "-S", "-m", "matsuki.cli", *argv, "--help"],
        env=env, capture_output=True, text=True, timeout=60, check=False,
    )
    expected = (ROOT / "tests" / "help" / f"{argv[0] if argv else 'matsuki'}.txt").read_text(encoding="utf-8")
    assert (result.returncode, result.stdout, result.stderr) == (0, expected, "")


def test_every_handler_has_one_table_entry():
    handlers = [handler for handler, _, _ in cli.COMMANDS.values()]
    commands = sorted(name for name in vars(cli) if name.startswith("cmd_"))
    assert sorted(handler.__name__ for handler in handlers) == commands
    assert all(getattr(cli, f"cmd_{name}") is handler for name, (handler, _, _) in cli.COMMANDS.items())


def test_readme_commands_run(capsys, tmp_path, monkeypatch):
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line.split("#", 1)[0].split() for line in block.splitlines()]
    assert all(line[0] == "matsuki" for line in lines) and len(lines) == 11
    (tmp_path / "loop.matrix").write_text(SHEAR_FILE)
    monkeypatch.chdir(tmp_path)
    for line in lines:
        argv = [str(tmp_path / "export") if word == "DIR" else word for word in line[1:]]
        assert cli._read_table(argv) is not None, line
        assert main(argv) == 0, line
    capsys.readouterr()
