"""Every name a pvgp module imports is used in it or listed in its ``__all__``.

An import left behind by a deletion costs an import-time lookup and a
reader's attention; this guard finds it instead of a reader.
"""

import ast
from pathlib import Path

import pvgp


def unused_imports(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, name) for each name ``tree`` imports that it neither uses nor lists in ``__all__``."""
    imported: dict[str, int] = {}
    exported: set[str] = set()
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # import a.b binds a
                imported.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported |= {elt.value for elt in ast.walk(node.value) if isinstance(elt, ast.Constant)}
    return sorted((line, name) for name, line in imported.items() if name not in used | exported)


def test_no_module_imports_a_name_it_does_not_use():
    package = Path(pvgp.__file__).parent
    found = [
        f"{path.name}:{line} {name}"
        for path in sorted(package.glob("*.py"))
        for line, name in unused_imports(ast.parse(path.read_text(), str(path)))
    ]
    assert not found, f"unused imports: {found}"


def test_the_guard_sees_each_form():
    source = """
from __future__ import annotations
import os
import numpy as np
import scipy.linalg
from math import exp, log
from .geotime import UTC as utc
from . import gp
__all__ = ["gp"]
np.zeros(3)
exp(1.0)
"""
    assert unused_imports(ast.parse(source)) == [(3, "os"), (5, "scipy"), (6, "log"), (7, "utc")]
