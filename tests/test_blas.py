"""Every dense product in pvgp goes through scipy's BLAS.

numpy and scipy each load their own OpenBLAS, each with its own thread
pool.  The factorisation and solves run on scipy's, so a product through
numpy's wakes a second pool that competes with the first for the cores.
"""

import ast
from pathlib import Path

import pvgp

# numpy functions that run on numpy's BLAS
NUMPY_PRODUCTS = {"dot", "matmul", "vdot", "inner", "tensordot"}


def numpy_blas_uses(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, what) for each ``@`` and each use of a numpy product or ``numpy.linalg`` in ``tree``."""
    numpy_names = {"numpy"}
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "numpy":
                    numpy_names.add(alias.asname or "numpy")
                elif alias.name.startswith("numpy.linalg"):
                    uses.append((node.lineno, f"import {alias.name}"))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
            if node.module.startswith("numpy.linalg"):
                uses.append((node.lineno, f"from {node.module} import"))
            for alias in node.names:
                if alias.name in NUMPY_PRODUCTS | {"linalg"}:
                    uses.append((node.lineno, f"from {node.module} import {alias.name}"))
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            uses.append((node.lineno, "@"))
        elif isinstance(node, ast.Attribute) and node.attr in NUMPY_PRODUCTS:
            # np.dot(...) and ndarray.dot(...) alike
            uses.append((node.lineno, f".{node.attr}"))
        elif (
            isinstance(node, ast.Attribute)
            and node.attr == "linalg"
            and isinstance(node.value, ast.Name)
            and node.value.id in numpy_names
        ):
            uses.append((node.lineno, f"{node.value.id}.linalg"))
    return sorted(uses)


def test_no_product_goes_through_numpy_blas():
    package = Path(pvgp.__file__).parent
    found = [
        f"{path.name}:{line} {what}"
        for path in sorted(package.glob("*.py"))
        for line, what in numpy_blas_uses(ast.parse(path.read_text(), str(path)))
    ]
    assert not found, f"use scipy.linalg.blas / scipy.linalg instead: {found}"


def test_the_guard_sees_each_form():
    source = """
import numpy as np
import numpy.linalg
from numpy.linalg import solve
from numpy import dot
a @ b
a @= b
np.dot(a, b)
a.dot(b)
np.tensordot(a, b)
np.linalg.inv(a)
scipy.linalg.cholesky(a)
blas.ddot(a, b)
"""
    lines = [line for line, _ in numpy_blas_uses(ast.parse(source))]
    assert lines == [3, 4, 5, 6, 7, 8, 9, 10, 11]
