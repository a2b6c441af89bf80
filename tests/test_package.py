"""The package surface and its start-up: every library module is registered
on import and runs on first use, so a command runs only the modules it
calls, and the public names resolve to the objects their modules define."""

import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import matsuki
import matsuki.cli
from matsuki.cli import main
from matsuki.realform import catalog
from matsuki.textio import format_involution

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = ("errors", "record", "rootdata", "realform", "fundgroup", "orbitposet", "loopmatrix", "textio", "laws")
IDENTITY_FILE = "form: gl2_split\nsize: 2\nentry 1 1: (0, 1/1, 0/1)\nentry 2 2: (0, 1/1, 0/1)\n"

# run in a fresh interpreter; the last line of stdout reports the modules
PROBE = """
import json, sys, types
{setup}
print(json.dumps({{
    "run": sorted(n[8:] for n, m in sys.modules.items() if n.startswith("matsuki.") and type(m) is types.ModuleType),
    "registered": sorted(n[8:] for n in sys.modules if n.startswith("matsuki.")),
    "modules": sorted(sys.modules),
}}))
"""


def _python(*args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, "-B", "-S", *args], env=env, capture_output=True, text=True, timeout=60, check=False
    )


def _fresh(setup):
    result = _python("-c", PROBE.format(setup=setup))
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def _after_command(argv):
    return _fresh(f"from matsuki.cli import main\nassert main({argv!r}) == 0")


def test_import_registers_every_library_module_and_runs_none():
    # the benchmark's tracer reads each module from sys.modules
    seen = _fresh("import matsuki")
    assert seen["registered"] == sorted(LIBRARY)
    assert seen["run"] == []


def test_orbits_runs_only_the_lattice_modules():
    seen = _after_command(["orbits", "gl2_split", "--height", "4"])
    assert seen["run"] == ["cli", "errors", "fundgroup", "orbitposet", "realform", "record", "rootdata"]
    assert not {"fractions", "random", "decimal"} & set(seen["modules"])


def test_catalog_runs_neither_the_orbit_nor_the_matrix_layer():
    seen = _after_command(["catalog"])
    assert seen["run"] == ["cli", "errors", "realform", "record", "rootdata"]


def test_invariant_runs_the_matrix_layer(tmp_path):
    path = tmp_path / "id.matrix"
    path.write_text(IDENTITY_FILE)
    seen = _after_command(["invariant", str(path)])
    assert {"loopmatrix", "textio"} <= set(seen["run"])
    assert not {"fundgroup", "orbitposet", "laws"} & set(seen["run"])


BENCHMARK_SETUP = (
    "from matsuki import loopmatrix, realform\n"
    "for name in realform.catalog_names():\n    realform.catalog(name)\n"
    "for name in loopmatrix.form_names():\n    loopmatrix.form_action(name)"
)


def test_benchmark_setup_runs_neither_fundgroup_nor_orbitposet():
    # the matrix layer reads its catalog entry, whose sub-semigroup only
    # geodesic construction asks for
    seen = _fresh(BENCHMARK_SETUP)
    assert "loopmatrix" in seen["run"]
    assert not {"fundgroup", "orbitposet"} & set(seen["run"])


def _loaded(setup, names):
    """The set-up's stdout in a fresh interpreter, and which of the named
    modules it holds after it; the probe imports nothing, since json loads re."""
    result = _python("-c", f"import sys\n{setup}\nprint(*sorted(set({sorted(names)!r}) & set(sys.modules)))")
    assert result.returncode == 0, result.stderr
    *out, last = result.stdout.splitlines(keepends=True)
    return "".join(out), last.split()


def test_benchmark_setup_loads_no_fractions_random_or_re():
    # fractions loads decimal, numbers and re; the matrix layer defers it and random
    assert _loaded(BENCHMARK_SETUP, {"fractions", "decimal", "numbers", "random", "re"}) == ("", [])


def test_invariant_loads_no_fractions_or_random(tmp_path):
    path = tmp_path / "id.matrix"
    path.write_text(IDENTITY_FILE)
    setup = f"from matsuki.cli import main\nassert main(['invariant', {str(path)!r}]) == 0"
    assert _loaded(setup, {"fractions", "decimal", "random"})[1] == []


ARGPARSE_MODULES = {"argparse", "shutil", "gettext", "locale"}


@pytest.mark.parametrize(
    "argv", [["catalog"], ["orbits", "gl2_split", "--height", "4"], ["dual", "gl2_split", "1", "-1"], ["invariant"]],
    ids=["catalog", "orbits", "dual", "invariant"],
)
def test_well_formed_commands_load_no_argparse(tmp_path, argv):
    # the table reader serves them, and the matrix file's reader needs no re either
    if argv == ["invariant"]:
        argv = ["invariant", str(tmp_path / "id.matrix")]
        (tmp_path / "id.matrix").write_text(IDENTITY_FILE)
    setup = f"from matsuki.cli import main\nassert main({argv!r}) == 0"
    assert _loaded(setup, ARGPARSE_MODULES | {"re"})[1] == []


@pytest.mark.parametrize("command", ["invariant", "pi1", "catalog"])
def test_file_commands_load_no_re(tmp_path, command):
    # the text formats are read with str methods: re would cost each command
    # a few milliseconds of start-up
    (tmp_path / "id.matrix").write_text(IDENTITY_FILE)
    (tmp_path / "su21.involution").write_text(format_involution(catalog("su21")))
    argv = {
        "invariant": ["invariant", str(tmp_path / "id.matrix")],
        "pi1": ["pi1", str(tmp_path / "su21.involution")],
        "catalog": ["catalog", "--export", str(tmp_path / "exported")],
    }[command]
    setup = f"from matsuki.cli import main\nassert main({argv!r}) == 0"
    assert _loaded(setup, {"re"})[1] == []


@pytest.mark.parametrize("argv", [["--help"], ["orbits", "gl2_split", "--height", "abc"]], ids=["help", "usage-error"])
def test_help_and_usage_errors_load_argparse(argv):
    setup = f"from matsuki.cli import main\ntry:\n    main({argv!r})\nexcept SystemExit:\n    pass"
    assert _loaded(setup, ARGPARSE_MODULES | {"re"})[1] == sorted(ARGPARSE_MODULES | {"re"})


def test_deferred_modules_load_where_they_are_used(capsys):
    # check and a generator load random, a Gaussian's repr loads fractions, and
    # each prints what it prints in this process, where both are loaded
    from matsuki.loopmatrix import HALF, random_k_loop
    from matsuki.textio import format_matrix

    assert main(["check", "pgl2_so21"]) == 0
    expected = capsys.readouterr().out + f"{format_matrix(random_k_loop('gl2_split', 7))}\n{HALF!r}\n"
    setup = (
        "from matsuki.cli import main\n"
        "from matsuki.loopmatrix import HALF, random_k_loop\n"
        "from matsuki.textio import format_matrix\n"
        "assert main(['check', 'pgl2_so21']) == 0\n"
        "print(format_matrix(random_k_loop('gl2_split', 7)))\n"
        "print(repr(HALF))"
    )
    assert _loaded(setup, {"fractions", "random"}) == (expected, ["fractions", "random"])


def test_exported_involution_files_need_no_fractions(tmp_path):
    seen = _fresh(
        "from matsuki.cli import main\n"
        f"assert main(['catalog', '--export', {str(tmp_path)!r}]) == 0\n"
        f"assert main(['pi1', {str(tmp_path / 'su21.involution')!r}]) == 0"
    )
    assert "textio" in seen["run"]
    assert not {"fractions", "decimal"} & set(seen["modules"])


def test_check_runs_the_property_suites():
    seen = _after_command(["check", "pgl2_so21"])
    assert {"laws", "loopmatrix", "orbitposet"} <= set(seen["run"])


# eight threads reach the same unrun modules at once
THREADS = """
import sys, threading
import matsuki
sys.setswitchinterval(1e-6)
start = threading.Barrier(8)
seen, failed = [], []

def use():
    start.wait()
    try:
        seen.append((matsuki.loopmatrix.form_names, matsuki.orbitposet.k_leq, matsuki.catalog))
    except Exception as exc:
        failed.append(repr(exc))

threads = [threading.Thread(target=use) for _ in range(8)]
for t in threads:
    t.start()
for t in threads:
    t.join(30)
assert not any(t.is_alive() for t in threads)
assert failed == [], failed
# each module ran once: every thread got the same function objects
assert set(seen) == {(matsuki.loopmatrix.form_names, matsuki.orbitposet.k_leq, matsuki.catalog)}
print(len(seen))
"""


def test_first_use_from_many_threads_runs_each_module_once():
    result = _python("-c", THREADS)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "8"


# an assignment or deletion on a module that has not run runs it first, once
ASSIGN = """
from matsuki import laws, orbitposet
runs = []
for module in (laws, orbitposet):
    loader = object.__getattribute__(module, "__spec__").loader
    loader.exec_module = lambda m, run=loader.exec_module: runs.append(m.__name__) or run(m)
marker = object()
laws.r_leq = marker
assert laws.r_leq is marker and callable(laws.hasse_closure)
del orbitposet.k_leq
assert not hasattr(orbitposet, "k_leq") and callable(orbitposet.r_leq)
print(runs)
"""


def test_assignment_and_deletion_act_on_the_run_module():
    result = _python("-c", ASSIGN)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "['matsuki.laws', 'matsuki.orbitposet']"


def test_importing_the_package_again_keeps_its_modules():
    # the package's code run a second time finds each module registered
    for stem in ("rootdata", "laws"):
        assert matsuki._register(stem) is sys.modules[f"matsuki.{stem}"] is getattr(matsuki, stem)


def test_module_run_of_the_cli_warns_nothing():
    # runpy warns if matsuki.cli is in sys.modules before it runs as __main__
    result = _python("-W", "error", "-m", "matsuki.cli", "catalog")
    assert result.returncode == 0
    assert result.stderr == ""
    assert result.stdout.count("\n") == 10


def test_public_names_are_their_modules_objects():
    assert set(matsuki.__all__) == {name for names in matsuki._EXPORTS.values() for name in names}
    for stem, names in matsuki._EXPORTS.items():
        module = getattr(matsuki, stem)
        assert module is sys.modules[f"matsuki.{stem}"]
        for name in names:
            value = getattr(matsuki, name)
            assert value is getattr(module, name)
            if isinstance(value, (type, types.FunctionType)):
                assert value.__module__ == f"matsuki.{stem}", name
    assert matsuki.k_leq is matsuki.orbitposet.k_leq


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from matsuki import *", namespace)
    assert set(matsuki.__all__) <= set(namespace)
    assert namespace["catalog"] is matsuki.realform.catalog


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        matsuki.__getattr__("no_such_name")
    with pytest.raises(AttributeError, match="no_such_name"):
        matsuki.cli.__getattr__("no_such_name")
    assert not hasattr(matsuki, "cli_main")


def test_cli_still_reads_the_loop_matrix_names():
    assert matsuki.cli.mat_mul is matsuki.loopmatrix.mat_mul
    assert matsuki.cli.k_orbit_invariant is matsuki.loopmatrix.k_orbit_invariant
    assert not hasattr(matsuki.cli, "determinant")  # never imported by name
