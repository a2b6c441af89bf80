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
