"""Every name a module of the package or a test-side reference model
imports is used in that module, every local a function there assigns is
read, no module of the package (nor the exact sequence model beside it)
does float arithmetic, and the package exports each public name from the
module that defines it."""

import ast
import importlib
from pathlib import Path

import pytest

import unimet

PACKAGE = Path(unimet.__file__).parent
TESTS = Path(__file__).parent
PACKAGE_MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
# The lint scans read the package's modules and the reference models the
# tests keep beside them, each under its file name.
MODELS = [TESTS / name for name in ("conemodels.py", "cubohedra.py", "sequences.py")]
SOURCES = {p.name: p for p in PACKAGE_MODULES + MODELS}
# The exactness scans read the package and ``sequences.py``, whose sup
# distance the embedding oracles certify against.
EXACT_MODULES = [p.name for p in PACKAGE_MODULES] + ["sequences.py"]
MODULES = sorted(SOURCES)


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
    assert {"conemodels.py", "cubohedra.py", "sequences.py"} <= set(MODULES)
    assert "sequences.py" not in {p.name for p in PACKAGE_MODULES}
    assert len(SOURCES) == len(PACKAGE_MODULES) + len(MODELS)


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    tree = ast.parse(SOURCES[module].read_text(encoding="utf-8"))
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


def unread_locals(tree):
    """``function:line name`` of each name a function assigns and never
    reads; a read in a nested function counts, and ``_`` is left out."""
    found = []
    for function in ast.walk(tree):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stored, loaded = {}, set()
        for node in ast.walk(function):
            if isinstance(node, ast.Name):
                if isinstance(node.ctx, ast.Store):
                    stored.setdefault(node.id, node.lineno)
                else:
                    loaded.add(node.id)
        found += [
            f"{function.name}:{line} {name}"
            for name, line in stored.items()
            if name not in loaded and name != "_"
        ]
    return found


@pytest.mark.parametrize("module", MODULES)
def test_no_unread_locals(module):
    tree = ast.parse(SOURCES[module].read_text(encoding="utf-8"))
    assert not unread_locals(tree), [f"{module} {hit}" for hit in unread_locals(tree)]


def test_scan_flags_an_unread_local():
    tree = ast.parse(
        "def f(xs):\n"
        "    total, unused = 0, 1\n"
        "    for _ in xs:\n"
        "        total += 1\n"
        "    def g():\n"
        "        return total\n"
        "    return g\n"
    )
    assert unread_locals(tree) == ["f:2 unused"]


# ---- no float in the package ----

# What ``math`` may lend the package: exact integer functions only.
MATH_ALLOWED = {"gcd", "lcm"}


def float_uses(tree):
    """``line what`` of each float the source asks for: a ``float(...)``
    call, a float literal, ``import math``, or a name from ``math`` other
    than those in ``MATH_ALLOWED``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "float":
            found.append(f"{node.lineno} float()")
        elif isinstance(node, ast.Constant) and isinstance(node.value, float):
            found.append(f"{node.lineno} literal {node.value!r}")
        elif isinstance(node, ast.Import):
            found += [f"{node.lineno} import {a.name}" for a in node.names
                      if a.name.split(".")[0] == "math"]
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [f"{node.lineno} math.{a.name}" for a in node.names
                      if a.name not in MATH_ALLOWED]
    return found


@pytest.mark.parametrize("module", EXACT_MODULES)
def test_no_float_arithmetic(module):
    tree = ast.parse(SOURCES[module].read_text(encoding="utf-8"))
    assert not float_uses(tree), [f"{module}:{hit}" for hit in float_uses(tree)]


def test_scan_flags_float_arithmetic():
    # Each kind of float use the scan refuses, beside the gcd and lcm it allows.
    tree = ast.parse(
        "import math\n"
        "from math import gcd, log10, lcm\n"
        "def exponent(bits):\n"
        "    return math.floor(bits * math.log10(2)) + gcd(1, lcm(1, 2))\n"
        "def head(x):\n"
        "    return float(x) * 1e3 + log10(2)\n"
    )
    assert float_uses(tree) == [
        "1 import math", "2 math.log10", "6 float()", "6 literal 1000.0",
    ]


# ---- the stored form, not its Fraction view ----


def fraction_view_reads(tree):
    """``line what`` of each read of a space's ``Fraction`` view, a
    ``.dist`` attribute or a ``.d(...)`` call, outside ``raise`` statements,
    whose messages may quote a distance."""
    in_raise = {id(sub) for node in ast.walk(tree) if isinstance(node, ast.Raise)
                for sub in ast.walk(node)}
    found = []
    for node in ast.walk(tree):
        if id(node) in in_raise:
            continue
        if isinstance(node, ast.Attribute) and node.attr == "dist" \
                and isinstance(node.ctx, ast.Load):
            found.append(f"{node.lineno} .dist")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "d":
            found.append(f"{node.lineno} .d()")
    return sorted(found, key=lambda hit: int(hit.split()[0]))


@pytest.mark.parametrize("module", [name for name in EXACT_MODULES if name != "spaces.py"])
def test_no_fraction_view_reads(module):
    """Only ``spaces.py``, which builds the view, reads it; every other
    module computes on the stored ints and their scale."""
    hits = fraction_view_reads(ast.parse(SOURCES[module].read_text(encoding="utf-8")))
    assert not hits, [f"{module}:{hit}" for hit in hits]


def test_scan_flags_fraction_view_reads():
    # A view read in code is refused; one in a raise message is not.
    tree = ast.parse(
        "def gap(space, a, b):\n"
        "    rows = space.dist\n"
        "    if rows[a][b] != space.d(b, a):\n"
        "        raise ValueError(f'{space.d(a, b)} vs {space.dist[b][a]}')\n"
        "    return space.ints[a][b]\n"
    )
    assert fraction_view_reads(tree) == ["2 .dist", "3 .d()"]


# ---- the package loads each module on first use ----


def top_level_definitions(tree):
    """Names a module defines itself: functions, classes and assignments."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def package_assignments():
    """The package's top-level assignments by name, read without importing."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return {
        node.targets[0].id: node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
    }


def test_every_exported_name_is_defined_by_its_module():
    assigned = package_assignments()
    exports = ast.literal_eval(assigned["_EXPORTS"])
    misplaced = []
    for module, names in exports.items():
        tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
        defined = top_level_definitions(tree)
        misplaced += [f"{module}.{name}" for name in names if name not in defined]
    assert not misplaced
    flat = [name for names in exports.values() for name in names]
    assert len(flat) == len(set(flat))
    assert ast.dump(assigned["__all__"]) == ast.dump(
        ast.parse("sorted(_MODULE_OF)", mode="eval").body
    )


def test_lazy_names_are_the_module_objects():
    for name in unimet.__all__:
        module = importlib.import_module(f"unimet.{unimet._MODULE_OF[name]}")
        assert getattr(unimet, name) is getattr(module, name), name
    namespace = {}
    exec("from unimet import *", namespace)
    assert set(unimet.__all__) <= set(namespace)
    assert set(unimet.__all__) <= set(dir(unimet))
    with pytest.raises(AttributeError, match="^module 'unimet' has no attribute 'nope'$"):
        unimet.nope
