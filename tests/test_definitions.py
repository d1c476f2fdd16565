"""Every function and class the package defines is referenced by name.

A definition counts as referenced when its name appears, outside its own
``def`` or ``class`` line, as a plain name, an attribute or an imported
name anywhere in ``src/unimet`` or ``tests``.  Dunder methods are called by
the language itself and are left out.  A definition nothing names is code
that nothing reaches.
"""

import ast
from pathlib import Path

import unimet

PACKAGE = Path(unimet.__file__).parent
TESTS = Path(__file__).parent


def definitions(tree):
    """Name -> line of every function, method and class defined in a module."""
    return {
        node.name: node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    }


def references(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def parsed(paths):
    return {path: ast.parse(path.read_text(encoding="utf-8")) for path in paths}


def test_every_definition_is_referenced():
    package = parsed(sorted(PACKAGE.glob("*.py")))
    suite = parsed(sorted(TESTS.glob("*.py")))
    used = set()
    for tree in list(package.values()) + list(suite.values()):
        used |= references(tree)
    dead = sorted(
        f"{path.name}:{line} {name}"
        for path, tree in package.items()
        for name, line in definitions(tree).items()
        if name not in used
    )
    assert not dead, dead


def test_scan_flags_an_unreferenced_method():
    tree = ast.parse(
        "class A:\n"
        "    def __init__(self):\n"
        "        self.kept()\n"
        "    def kept(self):\n"
        "        return helper()\n"
        "    def dropped(self):\n"
        "        return 0\n"
        "def helper():\n"
        "    return A\n"
    )
    assert set(definitions(tree)) - references(tree) == {"dropped"}
