"""Every dense product in pvgp goes through scipy's BLAS, and every factorisation and solve straight to LAPACK.

numpy and scipy each load their own OpenBLAS, each with its own thread
pool.  The factorisation and solves run on scipy's, so a product through
numpy's wakes a second pool that competes with the first for the cores.
scipy's ``cholesky`` and ``cho_factor`` zero the factor's other triangle in
a column-strided pass that nothing in pvgp needs, and they and
``cho_solve`` and ``solve_triangular`` only wrap the LAPACK routines
``dpotrf``, ``dpotrs`` and ``dtrtrs``.  pvgp calls LAPACK directly:
``dpotrf`` and ``dpotrs`` on the fit's square Gram, and ``dpftrf``,
``dtfsm`` and ``dpftrs`` on a Gram in rectangular full packed storage.
"""

import ast
from pathlib import Path

import pvgp

# numpy functions that run on numpy's BLAS
NUMPY_PRODUCTS = {"dot", "matmul", "vdot", "inner", "tensordot"}
# scipy.linalg wrappers of the LAPACK routines pvgp calls directly
SCIPY_WRAPPERS = {"cholesky", "cho_factor", "cho_solve", "solve_triangular"}


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


def scipy_wrapper_uses(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, what) for each import or attribute use of a :data:`SCIPY_WRAPPERS` name in ``tree``."""
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("scipy"):
            uses += [(node.lineno, f"from {node.module} import {a.name}") for a in node.names if a.name in SCIPY_WRAPPERS]
        elif isinstance(node, ast.Attribute) and node.attr in SCIPY_WRAPPERS:
            uses.append((node.lineno, f".{node.attr}"))
    return sorted(uses)


def test_no_product_goes_through_numpy_blas():
    package = Path(pvgp.__file__).parent
    found = [
        f"{path.name}:{line} {what}"
        for path in sorted(package.glob("*.py"))
        for line, what in numpy_blas_uses(ast.parse(path.read_text(), str(path)))
    ]
    assert not found, f"use scipy.linalg.blas / scipy.linalg instead: {found}"


def test_no_factorisation_or_solve_goes_through_a_scipy_wrapper():
    package = Path(pvgp.__file__).parent
    found = [
        f"{path.name}:{line} {what}"
        for path in sorted(package.glob("*.py"))
        for line, what in scipy_wrapper_uses(ast.parse(path.read_text(), str(path)))
    ]
    assert not found, f"call scipy.linalg.lapack (dpotrf, dpotrs, dpftrf, dtfsm, dpftrs) instead: {found}"


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
from scipy.linalg import cho_factor, lapack
from scipy.linalg._decomp_cholesky import cho_solve
linalg.solve_triangular(a, b)
lapack.dpotrf(a)
"""
    lines = [line for line, _ in numpy_blas_uses(ast.parse(source))]
    assert lines == [3, 4, 5, 6, 7, 8, 9, 10, 11]
    lines = [line for line, _ in scipy_wrapper_uses(ast.parse(source))]
    assert lines == [12, 14, 15, 16]
