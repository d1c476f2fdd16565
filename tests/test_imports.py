"""Every name a module of the package imports is used in that module."""

import ast
from pathlib import Path

import pytest

import unimet

PACKAGE = Path(unimet.__file__).parent
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree):
    """Bound name -> line of every import outside ``from __future__``."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names[(alias.asname or alias.name).split(".")[0]] = node.lineno
    return names


def referenced_names(tree):
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_every_module_is_scanned():
    assert "quotients.py" in MODULES and "spaces.py" in MODULES


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    imported = imported_names(tree)
    unused = sorted(set(imported) - referenced_names(tree))
    assert not unused, [f"{module}:{imported[name]} {name}" for name in unused]


def test_scan_flags_an_unused_import():
    tree = ast.parse(
        "from typing import Optional, Tuple\n"
        "import os.path\n"
        "def f(x: Optional[int]) -> int:\n"
        "    return os.sep\n"
    )
    assert set(imported_names(tree)) - referenced_names(tree) == {"Tuple"}
