"""List the statements of ``src/matsuki`` that the test suite never runs.

    python tests/uncovered.py [pytest arguments]

Runs ``pytest.main`` on ``tests/`` (plus any extra arguments) under a line
trace of every frame whose code lives in ``src/matsuki``, set with
``sys.settrace`` and ``threading.settrace``, then prints one
``module.py:line: source`` line per statement that never ran.  Docstrings
and ``def`` and ``class`` lines are left out: they run when the module is
imported, not when the code they define is called.  Commands that tests run
in a subprocess are not traced, so a line that only a subprocess reaches is
listed too.  Tracing slows the suite down several times; the rank-400
refusal of ``test_textio.py`` counts products and rows instead of timing
the parse, so the one wall-clock bound left is the second allowed to the
``orbits`` refusals of ``test_cli.py``.  Should a test fail under the
trace, the script reports the pytest exit code and still prints its list.
It exits 1 if it lists any statement, else 0.  pytest does not collect this
file.  ``tests/traffic.py`` runs the same trace (``line_trace``) over the
benchmark's operations and lists with the same ``report``.
"""

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "matsuki"


def statement_lines(path):
    """Line numbers of the statements of a module that run when called:
    every statement with bytecode but docstrings, defs and classes."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    skipped = set()
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if isinstance(node, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and body:
            first = body[0]
            if isinstance(first, ast.Expr) and isinstance(getattr(first.value, "value", None), str):
                skipped.add(id(first))
    lines = {
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.stmt) and id(node) not in skipped
        and not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }
    with_code, todo = set(), [compile(source, str(path), "exec")]
    while todo:
        code = todo.pop()
        with_code.update(line for _, _, line in code.co_lines() if line is not None)
        todo += [c for c in code.co_consts if hasattr(c, "co_lines")]
    return lines & with_code


def line_trace(run):
    """Call ``run()`` under a line trace of every frame whose code lives in
    ``src/matsuki``, set with ``sys.settrace`` and ``threading.settrace``;
    return its result and the set of lines that ran, keyed by file name."""
    prefix = str(PACKAGE) + "/"
    ran: dict[str, set[int]] = {}

    def local(frame, event, _arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, _arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        ran.setdefault(name, set()).add(frame.f_lineno)
        return local

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        return run(), ran
    finally:
        sys.settrace(None)
        threading.settrace(None)


def report(ran) -> int:
    """Print ``module.py:line: source`` for each statement of ``src/matsuki``
    not in ``ran``, then their number; return that number."""
    missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(statement_lines(path) - ran.get(str(path), set())):
            print(f"{path.name}:{line}: {text[line - 1].strip()}")
            missed += 1
    print(f"unreached statements: {missed}")
    return missed


def main(argv):
    import pytest

    sys.path.insert(0, str(ROOT / "src"))
    code, ran = line_trace(lambda: pytest.main([str(ROOT / "tests"), "-q", "-p", "no:cacheprovider", *argv]))
    print(f"pytest exit code: {int(code)}")
    return 1 if report(ran) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
