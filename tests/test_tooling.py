"""Source guards: the runtime imports only the standard library, stays exact
(the lattice layer on integers alone), reads every integer of a file through
one reader, keeps its checks under ``python -O``, starts up without
``dataclasses`` and imports ``argparse``, ``fractions``, ``decimal`` and
``random`` only inside the functions that use them, and holds no unused
top-level definitions; the README example runs and every constant it names
exists."""

import ast
import doctest
import graphlib
import importlib
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "matsuki").glob("*.py"))


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_sources_found():
    assert any(p.name == "loopmatrix.py" for p in SOURCES)


def _imported_modules(node):
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    return [node.module]


def _absolute_imports(path):
    """(line, module) for every absolute import in the file."""
    for node in ast.walk(_parse(path)):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom) and node.level == 0):
            for name in _imported_modules(node):
                yield node.lineno, name


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_are_stdlib_or_matsuki(path):
    allowed = set(sys.stdlib_module_names) | {"matsuki"}
    for lineno, name in _absolute_imports(path):
        assert name.split(".")[0] in allowed, f"{path.name}:{lineno} imports {name}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_dataclasses_import(path):
    # importing dataclasses pulls in inspect, ast, dis and tokenize at every CLI start-up
    for lineno, name in _absolute_imports(path):
        assert name.split(".")[0] != "dataclasses", f"{path.name}:{lineno} imports {name}"


LATTICE_LAYER = [ROOT / "src" / "matsuki" / f"{stem}.py" for stem in ("fundgroup", "orbitposet", "realform", "rootdata")]


@pytest.mark.parametrize("path", LATTICE_LAYER, ids=lambda p: p.name)
def test_lattice_layer_is_integer_only(path):
    # every lattice solve is an integer one, read off the Smith normal form
    for lineno, name in _absolute_imports(path):
        assert name.split(".")[0] != "fractions", f"{path.name}:{lineno} imports {name}"


def test_cli_import_leaves_out_dataclasses_and_inspect():
    code = "import sys, matsuki.cli; print(sorted({'argparse', 'dataclasses', 'inspect'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-B", "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "[]"


def test_readme_example_runs():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```python\n(>>> .*?)```", text, re.DOTALL).group(1)
    test = doctest.DocTestParser().get_doctest(block, {}, "README.md", "README.md", 0)
    assert test.examples[0].source == "from matsuki import catalog, enumerate_orbits, matsuki_dual\n"
    result = doctest.DocTestRunner().run(test)
    assert result.failed == 0 and result.attempted == len(test.examples) == 4


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_float_calls(path):
    for node in ast.walk(_parse(path)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            assert node.func.id != "float", f"{path.name}:{node.lineno} calls float()"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    # python -O strips assert statements; internal checks raise typed errors instead
    for node in ast.walk(_parse(path)):
        assert not isinstance(node, ast.Assert), f"{path.name}:{node.lineno} uses assert"


def _annotations(tree):
    """Every annotation in the tree: what ``int`` names there is a type, not a call."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg):
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


INTEGER_READER = "_ints"
CATCHES_VALUE_ERROR = {"ValueError", "Exception", "BaseException"}


def test_textio_reads_every_integer_through_one_reader():
    # int() raises ValueError on a literal past Python's digit limit, so an
    # int() on file text outside the reader is a traceback on a long number
    tree = _parse(ROOT / "src" / "matsuki" / "textio.py")
    typed = {id(node) for annotation in _annotations(tree) for node in ast.walk(annotation)}
    (reader,) = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == INTEGER_READER]
    inside = {id(node) for node in ast.walk(reader)}
    ints = [node for node in ast.walk(tree) if isinstance(node, ast.Name) and node.id == "int" and id(node) not in typed]
    handlers = [
        node for node in ast.walk(tree) if isinstance(node, ast.ExceptHandler) and (
            node.type is None or CATCHES_VALUE_ERROR & {n.id for n in ast.walk(node.type) if isinstance(n, ast.Name)})
    ]
    assert ints and handlers, "the integer reader calls int() and catches its ValueError"
    assert [node.lineno for node in ints + handlers if id(node) not in inside] == []


# Unbounded caches allowed in the package: the catalog table and its entries,
# keyed by nothing or by a catalog entry name, so their size is fixed by the
# catalog.  The matrix forms are a module constant, with no cache.  A value
# derived from one root datum or involution is a cached property of that
# record and goes with it.  A function whose callers are cached themselves,
# whose value is a tuple comprehension, or that no command calls twice in one
# process, has none.
STRUCTURE_CACHES = {
    "realform._catalog": "catalog table",
    "realform.catalog": "catalog entry name",
}
# Every cache of the package with its maxsize, bounded ones included: beside
# the catalog's, only the slice cache, which keeps the last slice.
PACKAGE_CACHES = {**dict.fromkeys(STRUCTURE_CACHES), "orbitposet.enumerate_orbits": 1}


def _cache_sizes(decorator):
    """``[maxsize]`` of a ``functools.cache`` or ``lru_cache`` decorator, None
    meaning unbounded; ``[]`` for any other decorator."""
    name = getattr(decorator, "id", getattr(decorator, "attr", None))
    if name in ("cache", "lru_cache"):  # used bare
        return [None if name == "cache" else 128]
    if not isinstance(decorator, ast.Call):
        return []
    if getattr(decorator.func, "id", getattr(decorator.func, "attr", None)) != "lru_cache":
        return []
    sizes = [kw.value for kw in decorator.keywords if kw.arg == "maxsize"] + decorator.args[:1]
    return [ast.literal_eval(sizes[0]) if sizes else 128]


def _caches(node, prefix):
    """(qualified name, maxsize) of every cached function, methods included."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = prefix + child.name
            yield from ((name, size) for d in child.decorator_list for size in _cache_sizes(d))
            yield from _caches(child, name + ".")
        else:
            yield from _caches(child, prefix)


def _package_caches():
    return {name: size for path in SOURCES for name, size in _caches(_parse(path), path.stem + ".")}


def test_unbounded_caches_are_keyed_by_structure():
    assert {name for name, size in _package_caches().items() if size is None} == set(STRUCTURE_CACHES)


def test_the_only_caches_are_the_catalog_and_the_last_slice(package_caches):
    # a cache keyed by a datum or an involution, bounded or not, would hold
    # per-structure state that a cached property of the record holds instead
    assert _package_caches() == PACKAGE_CACHES
    running = {f"{c.__module__.removeprefix('matsuki.')}.{c.__qualname__}": c.cache_parameters()["maxsize"]
               for c in package_caches}
    assert running == PACKAGE_CACHES


# The only places that generate code: record initializers and the compiled
# lattice orders, whose sources hold nothing but field names and solver ints.
CODE_GENERATORS = {"record.Record.__init_subclass__", "rootdata.monoid_order"}


def _dynamic_code_calls(node, prefix):
    """Qualified names of the functions that call exec, eval or compile."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _dynamic_code_calls(child, prefix + child.name + ".")
            continue
        if isinstance(child, ast.Call):
            func = child.func  # the builtins, bare or as builtins.<name>; re.compile is not one
            if isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == "builtins":
                func = ast.Name(func.attr)
            if isinstance(func, ast.Name) and func.id in ("exec", "eval", "compile"):
                yield prefix.rstrip(".")
        yield from _dynamic_code_calls(child, prefix)


def test_code_generation_only_in_known_places():
    found = {
        name
        for path in SOURCES
        for name in _dynamic_code_calls(_parse(path), path.stem + ".")
    }
    assert found == CODE_GENERATORS


# Imports inside a function.  Package modules import one another at module
# level only, so the relative imports form the acyclic graph checked below.
# The only imports inside a function are three standard modules that start-up
# would pay for and never use: ``argparse`` (which loads re, gettext, shutil and
# locale) for help and usage errors, ``fractions`` (which loads decimal,
# numbers and re) for the Fraction-facing API of ``Gaussian``, and ``random``
# for the seeded loop generators.
FUNCTION_IMPORTS = {"cli.build_parser": "argparse", "loopmatrix._fraction": "fractions", "loopmatrix._product": "random"}
DEFERRED_MODULES = {"argparse", "fractions", "decimal", "random"}


def _function_imports(node, prefix, in_function=False):
    """(qualified function name, import node) for every import in a function body."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = in_function or not isinstance(child, ast.ClassDef)
            yield from _function_imports(child, prefix + child.name + ".", inside)
            continue
        if in_function and isinstance(child, (ast.Import, ast.ImportFrom)):
            yield prefix.rstrip("."), child
        yield from _function_imports(child, prefix, in_function)


def test_imports_only_at_module_level():
    found = [
        (name, node)
        for path in SOURCES
        for name, node in _function_imports(_parse(path), path.stem + ".")
    ]
    relative = [name for name, node in found if isinstance(node, ast.ImportFrom) and node.level]
    assert relative == []
    assert {name: ",".join(_imported_modules(node)) for name, node in found} == FUNCTION_IMPORTS
    assert len(found) == len(FUNCTION_IMPORTS)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_deferred_modules_are_not_imported_at_module_level(path):
    in_functions = {node.lineno for _, node in _function_imports(_parse(path), "")}
    for lineno, name in _absolute_imports(path):
        if lineno not in in_functions:
            assert name.split(".")[0] not in DEFERRED_MODULES, f"{path.name}:{lineno} imports {name}"


def test_relative_imports_are_acyclic():
    # every relative import, at module level or inside a function, is an edge
    graph = {path.stem: set() for path in SOURCES}
    for path in SOURCES:
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.ImportFrom) and node.level:
                targets = [node.module] if node.module else [alias.name for alias in node.names]
                graph[path.stem].update(t.split(".")[0] for t in targets)
    try:
        order = list(graphlib.TopologicalSorter(graph).static_order())
    except graphlib.CycleError as exc:
        pytest.fail(f"import cycle: {' -> '.join(exc.args[1])}")
    lattice = ["rootdata", "realform", "fundgroup", "orbitposet"]
    assert [stem for stem in order if stem in lattice] == lattice


def _words(lines):
    return Counter(word for line in lines for word in re.findall(r"\w+", line))


def test_every_top_level_definition_is_referenced():
    # dead code is deleted: each top-level function and class of the package
    # is named in src/, tests/ or bench/ somewhere outside its own definition
    files = {
        path: path.read_text(encoding="utf-8").splitlines()
        for top in ("src", "tests", "bench")
        for path in (ROOT / top).rglob("*.py")
    }
    total = _words(line for lines in files.values() for line in lines)
    unreferenced = []
    for path in SOURCES:
        for node in _parse(path).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                start = min([node.lineno] + [d.lineno for d in node.decorator_list])
                own = _words(files[path][start - 1 : node.end_lineno])
                if total[node.name] == own[node.name]:
                    unreferenced.append(f"{path.name}:{node.lineno} {node.name}")
    assert unreferenced == []


def test_every_constant_the_readme_names_exists():
    # a deleted constant or attribute cannot stay documented: each backticked
    # ALL-CAPS name in README.md is assigned at module level in some package
    # module, and each backticked dotted name whose head is the package, one of
    # its modules or one of its classes resolves, a record field counting
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    stems = {path.stem for path in SOURCES} - {"__init__"}
    classes = {node.name: path.stem for path in SOURCES for node in _parse(path).body if isinstance(node, ast.ClassDef)}
    dotted = re.findall(r"`([A-Za-z_]\w*(?:\.\w+)+)`", readme)
    checked, unresolved = [], []
    for name in dotted:
        head, *rest = name.split(".")
        if head in classes:
            module, rest = classes[head], [head, *rest]
        elif head == "matsuki" and rest[0] in stems:
            module, rest = rest[0], rest[1:]
        elif head in stems or head == "matsuki":
            module = head
        else:
            continue
        checked.append(name)
        owner = importlib.import_module("matsuki" if module == "matsuki" else f"matsuki.{module}")
        for attr in rest:
            if attr in getattr(owner, "_fields", ()):
                break
            if not hasattr(owner, attr):
                unresolved.append(name)
                break
            owner = getattr(owner, attr)
    assert "InvolutionSpec.moving_rows" in checked
    assert unresolved == []
    named = set(re.findall(r"`([A-Z][A-Z0-9_]+)`", readme))
    defined = {
        target.id
        for path in SOURCES
        for node in _parse(path).body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name)
    }
    assert "CANDIDATE_BUDGET" in named
    assert sorted(named - defined) == []


def _bench_interface():
    """(module, name) for every package name the benchmark reads outside its
    own tests: each attribute read on a ``from matsuki import X [as Y]`` alias,
    each ``from matsuki.X import name`` and the traced (module, function)
    pairs of ``TARGETS`` in ``bench/layers.py``."""
    bench = ROOT / "bench"
    found = set()
    for path in sorted(bench.rglob("*.py")):
        if "tests" in path.relative_to(bench).parts:
            continue
        tree = _parse(path)
        aliases = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == "matsuki":
                for alias in node.names:
                    aliases[alias.asname or alias.name] = f"matsuki.{alias.name}"
                    found.add(("matsuki", alias.name))
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.startswith("matsuki."):
                found.update((node.module, alias.name) for alias in node.names)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases:
                found.add((aliases[node.value.id], node.attr))
    for node in ast.walk(_parse(bench / "layers.py")):
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["TARGETS"]:
            found.update((f"matsuki.{t.elts[0].value}", t.elts[1].value) for t in node.value.elts)
    return found


def test_every_name_the_benchmark_reads_exists():
    # the benchmark runs unchanged on every commit, so each name it traces or
    # calls keeps its name and module
    names = _bench_interface()
    assert {("matsuki.fundgroup", "pi1_model"), ("matsuki.loopmatrix", "random_k_loop")} <= names
    missing = sorted(f"{module}.{name}" for module, name in names if not hasattr(importlib.import_module(module), name))
    assert missing == []
    enumerate_orbits = importlib.import_module("matsuki.orbitposet").enumerate_orbits
    assert callable(enumerate_orbits.cache_info) and callable(enumerate_orbits.cache_clear)  # read by bench/tests
