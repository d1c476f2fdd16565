"""Every function, class and module-level name the package defines is
reached from the package.

A top-level function, class or assigned name counts as reached when some
module in ``src/unimet`` names it, outside its own definition, as a loaded
name, an attribute or an imported name, or when the package exports it
(``unimet._EXPORTS``).  A test naming it does not count: code that only
its own tests reach is code that nothing reaches.  A method, or a function
nested in another, counts as reached when ``src/unimet`` or ``tests`` names
it, since a method is named through an object the scan cannot type.
Dunder names are used by the language itself and are left out.
"""

import ast
from pathlib import Path

import unimet

PACKAGE = Path(unimet.__file__).parent
TESTS = Path(__file__).parent


def is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def definitions(tree):
    """(name, line, top) for each function, method, class and module-level
    assignment of a module; ``top`` marks the ones at module level."""
    top = {id(node) for node in tree.body}
    found = [
        (node.name, node.lineno, id(node) in top)
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    ]
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [(t.id, node.lineno, True) for t in targets if isinstance(t, ast.Name)]
    return [entry for entry in found if not is_dunder(entry[0])]


def references(tree):
    """Names a module loads, reads as attributes, or imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def unreached(package, suite, exports):
    """``module.py:line name`` of each definition nothing reaches, given the
    package's and the suite's parsed modules by name and the exported names
    by module."""
    in_package = set().union(*map(references, package.values()))
    anywhere = in_package.union(*map(references, suite.values()))
    return sorted(
        f"{module}.py:{line} {name}"
        for module, tree in package.items()
        for name, line, top in definitions(tree)
        if name not in (in_package | exports.get(module, set()) if top else anywhere)
    )


def parsed(directory):
    return {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(directory.glob("*.py"))
    }


def test_every_definition_is_referenced():
    exports = {module: set(names) for module, names in unimet._EXPORTS.items()}
    dead = unreached(parsed(PACKAGE), parsed(TESTS), exports)
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
    assert unreached({"m": tree}, {}, {}) == ["m.py:6 dropped"]


def test_scan_flags_a_top_level_def_only_a_test_names():
    package = {"m": ast.parse(
        "def tested():\n"
        "    return 0\n"
        "def exported():\n"
        "    return kept()\n"
        "def kept():\n"
        "    return 1\n"
    )}
    suite = {"test_m": ast.parse("from m import exported, tested\nassert tested() == 0\n")}
    assert unreached(package, suite, {"m": {"exported"}}) == ["m.py:1 tested"]


def test_scan_flags_an_unread_module_level_name():
    package = {"m": ast.parse(
        "LIMIT = 3\n"
        "Alias: type = int\n"
        "UNREAD = 0\n"
        "def f(x: Alias) -> int:\n"
        "    return x + LIMIT\n"
        "__all__ = ['f']\n"
    )}
    suite = {"test_m": ast.parse("from m import UNREAD\nassert UNREAD == 0\n")}
    assert unreached(package, suite, {"m": {"f"}}) == ["m.py:3 UNREAD"]
