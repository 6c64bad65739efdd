"""Every F_q product goes through satrank.fields: no other satrank module
calls numpy's matmul or dot, so new products reach the kernel's exactness
regimes (float64 through BLAS, int64, Python ints) instead of a raw int64
product that wraps past 2**63."""

import ast
import pathlib

import pytest

import satrank

MODULES = sorted(p for p in pathlib.Path(satrank.__file__).parent.glob("*.py")
                 if p.name not in ("__init__.py", "fields.py"))
_PRODUCTS = {"matmul", "dot"}


def _raw_products(source: str):
    """(line, name) of each use of numpy's matmul or dot: an attribute of a
    name bound to numpy, a name imported from numpy, or a .dot method call."""
    tree = ast.parse(source)
    numpy_names, found = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            numpy_names |= {a.asname or a.name for a in node.names if a.name == "numpy"}
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            found |= {(node.lineno, a.name) for a in node.names if a.name in _PRODUCTS}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in _PRODUCTS:
            if isinstance(node.value, ast.Name) and node.value.id in numpy_names:
                found.add((node.lineno, f"{node.value.id}.{node.attr}"))
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "dot"):
            found.add((node.lineno, ".dot"))
    return sorted(found)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_fields_calls_numpy_products(path):
    assert _raw_products(path.read_text()) == []


def test_the_scan_finds_raw_products():
    source = ("import numpy as np\nimport numpy\nfrom numpy import dot as d, zeros\n\n"
              "def f(a, b):\n    x = np.matmul(a, b)\n    op = numpy.dot\n"
              "    return a.dot(b), a @ b, zeros(2), x, op\n")
    assert _raw_products(source) == [(3, "dot"), (6, "np.matmul"), (7, "numpy.dot"), (8, ".dot")]
