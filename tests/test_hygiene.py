"""Source hygiene checks that need no linter: stdlib ``ast`` only."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "scl_lab"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names bound by an import in ``source`` that nothing reads.

    A name counts as read when it appears as a load, as the root of an
    attribute chain, or inside a string annotation.  ``__future__``
    imports bind nothing and are skipped; ``__init__.py`` re-exports on
    purpose and is not checked.
    """
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    annotations = [a for n in ast.walk(tree)
                   for a in (getattr(n, "annotation", None), getattr(n, "returns", None))
                   if a is not None]
    for node in (c for a in annotations for c in ast.walk(a)):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            expr = ast.parse(node.value, mode="eval")
            used.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_only_what_it_uses(path):
    assert unused_imports(path.read_text()) == []


def test_detects_an_unused_import():
    source = ("from typing import List, Tuple\nimport numpy as np\n"
              "import os.path\n\ndef f(x: 'List[int]'):\n    return np.sum(x)\n")
    assert unused_imports(source) == ["Tuple (line 1)", "os (line 3)"]


# What the runtime may import: the standard library and numpy, nothing
# the test extras bring (pyproject.toml's runtime dependencies).
RUNTIME_IMPORTS = sys.stdlib_module_names | {"numpy"}


def foreign_imports(source: str) -> list:
    """Top-level packages that ``source`` imports from outside
    ``RUNTIME_IMPORTS``, wherever the import sits; a relative import
    stays inside the package and is not one of them."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            roots = [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots = [node.module.split(".")[0]]
        else:
            continue
        found.extend(f"{root} (line {node.lineno})" for root in roots
                     if root not in RUNTIME_IMPORTS)
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_only_the_standard_library_and_numpy(path):
    assert foreign_imports(path.read_text()) == []


def test_detects_a_foreign_import():
    source = ("from __future__ import annotations\nimport os, scipy.linalg\n"
              "from numpy.linalg import solve\nfrom . import numerics\n\n"
              "def f():\n    from matplotlib import pyplot\n    import numpy, yaml\n")
    assert foreign_imports(source) == ["scipy (line 2)", "matplotlib (line 7)",
                                       "yaml (line 8)"]


def numerics_shortcuts(source: str) -> list:
    """Calls of a ``.dot`` attribute or of ``rk4_affine``, and
    ``_``-prefixed names imported from ``.numerics``: the one-vector
    product goes through ``matvec``, a linear RK4 step through
    ``rk4_linear``, and numerics' private names stay in numerics."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr in ("dot", "rk4_affine"):
                found.append(f".{func.attr} (line {node.lineno})")
            elif isinstance(func, ast.Name) and func.id == "rk4_affine":
                found.append(f"rk4_affine (line {node.lineno})")
        elif (isinstance(node, ast.ImportFrom) and node.level == 1
              and node.module == "numerics"):
            found.extend(f"{alias.name} (line {node.lineno})"
                         for alias in node.names if alias.name.startswith("_"))
    return found


@pytest.mark.parametrize("path", [p for p in sorted(PACKAGE.glob("*.py"))
                                  if p.name != "numerics.py"], ids=lambda p: p.name)
def test_module_leaves_one_vector_shortcuts_to_numerics(path):
    assert numerics_shortcuts(path.read_text()) == []


def test_detects_a_numerics_shortcut():
    source = ("from .numerics import _FLOAT64, matvec, rk4_affine\n"
              "from numpy import _private\n\n"
              "def f(A, x):\n    return A.dot(x) + matvec(A, x)\n\n"
              "def g(A):\n    return rk4_affine(A, 0.1), numerics.rk4_affine(A, 0.1)\n")
    assert numerics_shortcuts(source) == [
        "_FLOAT64 (line 1)", ".dot (line 5)", "rk4_affine (line 8)", ".rk4_affine (line 8)"]


def test_package_has_modules_to_check():
    assert len(MODULES) >= 8
