"""Command-line behavior: deterministic reports, exit codes, file handling."""

import time

import pytest

from matsuki.cli import main
from matsuki.errors import TheoremViolationError

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
    "spec, height", [("gl3_split", "400"), ("sl3_split", "100000000")], ids=["gl3_split-400", "sl3_split-1e8"]
)
def test_orbits_over_the_budget_exit_one_at_once(capsys, spec, height):
    start = time.perf_counter()
    rc, out, err = run(capsys, ["orbits", spec, "--height", height])
    assert time.perf_counter() - start < 1
    assert rc == 1 and out == ""
    assert err.startswith(f"error: height bound {height} spans a box of ") and err.count("\n") == 1


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

    # a kernel step that never lowers a column degree exhausts the step bound
    monkeypatch.setattr(loopmatrix, "_kernel_vector", lambda m: [(1, 0)] + [(0, 0)] * (len(m) - 1))
    path = tmp_path / "id.matrix"
    path.write_text(IDENTITY_FILE)
    rc, _, err = run(capsys, ["invariant", str(path)])
    assert rc == 2
    assert err.startswith("theorem violation: column reduction") and "Traceback" not in err


def test_check_single_entry(capsys):
    rc, out, _ = run(capsys, ["check", "sl2_compact"])
    assert rc == 0
    assert "check: all suites passed" in out


def test_check_output_is_byte_identical_across_runs(capsys):
    rc1, first, _ = run(capsys, ["check", "sl2_split", "--seed", "3"])
    rc2, second, _ = run(capsys, ["check", "sl2_split", "--seed", "3"])
    assert rc1 == rc2 == 0
    assert first == second


def test_check_requires_spec_or_all(capsys):
    rc, _, err = run(capsys, ["check"])
    assert rc == 1
    assert "--all" in err


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
