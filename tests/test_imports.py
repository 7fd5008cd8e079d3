"""No unused imports in the package, the tests or the demos, no dead
private names and no unused options in the package.

A stdlib-only scan (``ast``): every name an import statement binds must be
read somewhere in the same file.  ``src/statepool/__init__.py`` is skipped,
because its imports are the package's re-exports.  Every module-level
private name (``_x`` function, class or constant) defined in
``src/statepool`` must be read somewhere in ``src/statepool``: code that
nothing calls is deleted.  Every parameter with a default in a ``def`` in
``src/statepool`` must be passed by some call in the package, the tests or
the demos, and omitted by another; otherwise it is a constant or a required
parameter.  That scan is a name-level heuristic: a call counts for every
``def`` with its bare callee name (``of``, ``apply``), and a call in a test
or a demo is enough, since those stand in for the users who set the public
options.  Counting package calls only would flag 8 public options that no
package code sets, such as ``quantum_compatible``'s ``tol``.
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


def defaulted_parameters(source: str) -> list:
    """(callee, parameter, position) for each parameter with a default of each
    ``def`` in ``source``: the callee is a function's or method's name, or the
    class name for ``__init__``; the position counts the positional arguments
    a call passes (past ``self`` or ``cls``), None for a keyword-only one."""
    tree = ast.parse(source)
    owner = {id(f): c.name for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
             for f in c.body if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))}
    found = []
    for f in ast.walk(tree):
        if not isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        bound = id(f) in owner and not any(
            getattr(d, "id", None) == "staticmethod" for d in f.decorator_list)
        name = owner[id(f)] if f.name == "__init__" and id(f) in owner else f.name
        positional = (f.args.posonlyargs + f.args.args)[bound:]
        first = len(positional) - len(f.args.defaults)
        found += [(name, p.arg, i) for i, p in enumerate(positional) if i >= first]
        found += [(name, p.arg, None) for p, d in zip(f.args.kwonlyargs, f.args.kw_defaults)
                  if d is not None]
    return found


def call_sites(source: str) -> list:
    """(callee name, positional count, keyword names, whether it unpacks * or **)
    for each call in ``source`` of a name or an attribute."""
    sites = []
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, ast.Call) and isinstance(n.func, (ast.Name, ast.Attribute)):
            name = n.func.id if isinstance(n.func, ast.Name) else n.func.attr
            star = (any(isinstance(a, ast.Starred) for a in n.args)
                    or any(k.arg is None for k in n.keywords))
            sites.append((name, len(n.args), {k.arg for k in n.keywords}, star))
    return sites


def unused_options(parameters, sites) -> list:
    """The (callee, parameter) pairs no call site passes or none omits; a call
    that unpacks arguments passes every parameter and omits none."""
    unused = []
    for name, param, pos in parameters:
        calls = [(n, kw, star) for callee, n, kw, star in sites if callee == name]
        passes = [star or param in kw or (pos is not None and pos < n) for n, kw, star in calls]
        if not (any(passes) and not all(passes)):
            unused.append((name, param))
    return unused


def test_scan_finds_an_unused_option():
    source = ("def f(a, b=1, *, c=2): pass\n"
              "class K:\n    def __init__(self, x=0): pass\n"
              "    def m(self, y=0): pass\n    @staticmethod\n    def s(z=0): pass\n"
              "f(0); f(0, 1); f(0, c=3); K(); K.s(1); k.m(*args); k.m()\n")
    assert defaulted_parameters(source) == [
        ("f", "b", 1), ("f", "c", None), ("K", "x", 0), ("m", "y", 0), ("s", "z", 0)]
    assert unused_options(defaulted_parameters(source), call_sites(source)) == [
        ("K", "x"), ("s", "z")]


def test_no_unused_options():
    parameters = [p for path in PACKAGE for p in defaulted_parameters(path.read_text())]
    sites = [s for path in set(PACKAGE) | set(FILES) for s in call_sites(path.read_text())]
    assert unused_options(parameters, sites) == []
