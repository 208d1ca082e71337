"""No module imports a name it never uses.

Each library module (the package's __init__.py re-exports, so it is left
out) and each test module is read with ast: every name bound by a
module-level import must be loaded somewhere in that module.  A function
parameter with the same name counts as a use, so a pytest fixture
imported into a test module is not flagged.
"""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted([*(p for p in (ROOT / "src" / "braceforge").glob("*.py")
                    if p.name != "__init__.py"),
                  *(ROOT / "tests").glob("*.py")])


def unused_imports(source: str) -> list[str]:
    """Names bound by the module-level imports of source and never used."""
    tree = ast.parse(source)
    imported = [alias.asname or alias.name.split(".")[0]
                for node in tree.body
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names]
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
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
