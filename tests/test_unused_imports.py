"""No module imports a name it never uses, and no private symbol is dead.

Each library module (the package's __init__.py re-exports, so it is left
out) and each test module is read with ast: every name bound by a
module-level import must be loaded somewhere in that module.  A function
parameter with the same name counts as a use, so a pytest fixture
imported into a test module is not flagged.

A library module's private names (a leading underscore, not a dunder)
are not exported, so each one that a module-level def, class or
assignment binds must be loaded somewhere in the library itself.

Outside linmap.py, the symmetric braiding is called by a fixed set of
functions, each of which swaps legs on purpose; a new caller, such as a
formula that could read an interchange instead, has to be added here.

Outside linmap.py, no library module reads a LinMap's storage, its
columns (_cols) or its monomial view (_mono), so which form a map is held
in stays private to the kernel.
"""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted((ROOT / "src" / "braceforge").glob("*.py"))
MODULES = sorted([*(p for p in LIBRARY if p.name != "__init__.py"),
                  *(ROOT / "tests").glob("*.py")])


def _loaded(tree: ast.AST) -> set[str]:
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def unused_imports(source: str) -> list[str]:
    """Names bound by the module-level imports of source and never used."""
    tree = ast.parse(source)
    imported = [alias.asname or alias.name.split(".")[0]
                for node in tree.body
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names]
    used = _loaded(tree)
    used |= {node.arg for node in ast.walk(tree) if isinstance(node, ast.arg)}
    return [name for name in imported if name not in used]


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\n"
              "import os, os.path as osp\n"
              "from a import b, c as d, fixture\n"
              "def f(fixture):\n"
              "    import sys\n"
              "    return b, osp\n")
    assert unused_imports(source) == ["os", "d"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def private_definitions(tree: ast.Module) -> list[str]:
    """Private names bound by the module-level defs, classes and plain or
    annotated assignments of tree."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t)
                      if isinstance(n, ast.Name)]
    return [n for n in names
            if n.startswith("_") and not (n.startswith("__") and n.endswith("__"))]


def dead_private_symbols(sources: dict[str, str]) -> list[str]:
    """module:name for each private definition no module of sources loads."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    loaded = set().union(*map(_loaded, trees.values()))
    return [f"{name}:{symbol}" for name, tree in trees.items()
            for symbol in private_definitions(tree) if symbol not in loaded]


def test_dead_private_symbols_are_found():
    sources = {"a": ("_USED: dict = {}\n"
                     "_DEAD: int = 0\n"
                     "_x, (_y, z) = 1, (2, 3)\n"
                     "__dunder__ = 0\n"
                     "class _Gone: pass\n"
                     "def _helper(): return _USED\n"
                     "def public(): pass\n"),
               "b": "from a import _helper, _y\n_helper(_y)\n"}
    assert dead_private_symbols(sources) == ["a:_DEAD", "a:_x", "a:_Gone"]


def test_no_dead_private_symbols_in_the_library():
    sources = {p.name: p.read_text() for p in LIBRARY}
    assert dead_private_symbols(sources) == []


def braiding_callers(sources: dict[str, str]) -> set[str]:
    """module.name for each module-level statement of sources (a def, a
    class, or any other statement, named <module>) that calls braiding."""
    callers = set()
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if any(isinstance(call, ast.Call) and (
                    isinstance(call.func, ast.Name) and call.func.id == "braiding"
                    or isinstance(call.func, ast.Attribute) and call.func.attr == "braiding")
                   for call in ast.walk(node)):
                callers.add(f"{module}.{getattr(node, 'name', '<module>')}")
    return callers


def test_braiding_callers_are_found():
    source = ("from .linmap import braiding\n"
              "from . import linmap\n"
              "SWAP = braiding(F, A, B)\n"
              "def named(): return braiding\n"
              "def direct(): return compose(braiding(F, A, B), g)\n"
              "class R:\n"
              "    def swap(self): return linmap.braiding(F, A, B)\n")
    assert braiding_callers({"m": source}) == {"m.<module>", "m.direct", "m.R"}


def test_braiding_is_called_only_where_legs_are_swapped():
    sources = {p.stem: p.read_text() for p in LIBRARY if p.name != "linmap.py"}
    assert braiding_callers(sources) == {
        "actions._interchange", "hopf._opposite_product",
        "hopf._opposite_coproduct", "matched.check_matched_pair"}


_STORAGE = ("_cols", "_mono")


def storage_readers(sources: dict[str, str]) -> list[str]:
    """module:line for each read of a LinMap's storage in sources, as an
    attribute or by its name in a string (for getattr)."""
    return [f"{module}:{node.lineno}" for module, source in sources.items()
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and node.attr in _STORAGE
            or isinstance(node, ast.Constant) and node.value in _STORAGE]


def test_storage_readers_are_found():
    source = ("def columns(m):\n"
              "    return m._cols\n"
              "def view(m):\n"
              "    return getattr(m, '_mono'), m.cols, m._colsx\n")
    assert storage_readers({"m": source}) == ["m:2", "m:4"]


def test_only_linmap_reads_a_linmaps_storage():
    sources = {p.stem: p.read_text() for p in LIBRARY if p.name != "linmap.py"}
    assert storage_readers(sources) == []
