"""No unused imports in the package, the tests or the demos, and no dead
private names in the package.

A stdlib-only scan (``ast``): every name an import statement binds must be
read somewhere in the same file.  ``src/statepool/__init__.py`` is skipped,
because its imports are the package's re-exports.  Every module-level
private name (``_x`` function, class or constant) defined in
``src/statepool`` must be read somewhere in ``src/statepool``: code that
nothing calls is deleted.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "statepool").glob("*.py"))
FILES = sorted(
    [p for p in PACKAGE if p.name != "__init__.py"]
    + list((ROOT / "tests").glob("*.py"))
    + list((ROOT / "demos").glob("*.py"))
)


def unused_imports(source: str) -> list:
    """The names bound by import statements in ``source`` that it never reads."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(set(bound) - read)


def test_scan_finds_an_unused_import():
    source = "import json\nimport os.path\nfrom math import pi, tau as t\nprint(os.sep, t)\n"
    assert unused_imports(source) == ["json", "pi"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def private_names(source: str) -> list:
    """The private names ``source`` defines at module level: functions,
    classes and assigned constants whose names start with one underscore."""
    bound = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [n for n in bound if n.startswith("_") and not n.startswith("__")]


def read_names(source: str) -> set:
    """The names ``source`` reads, bare (``_x``) or as attributes (``m._x``)."""
    tree = ast.parse(source)
    return ({n.id for n in ast.walk(tree) if isinstance(n, ast.Name)
             and isinstance(n.ctx, ast.Load)}
            | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)})


def test_scan_finds_a_dead_private_name():
    source = ("_A, __all__ = 1, []\n_B: int = 2\nclass _C: pass\n"
              "def _f(): return _A\ndef _g(): pass\nprint(_C, x._g)\n")
    assert private_names(source) == ["_A", "_B", "_C", "_f", "_g"]
    assert sorted(set(private_names(source)) - read_names(source)) == ["_B", "_f"]


def test_no_dead_private_names():
    sources = [p.read_text() for p in PACKAGE]
    read = set().union(*map(read_names, sources))
    assert sorted({n for s in sources for n in private_names(s)} - read) == []
