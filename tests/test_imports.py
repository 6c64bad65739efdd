"""Every name a satrank module or test file imports is used in that file,
and no function imports again from a module that its file imports at top
level."""

import ast
import pathlib

import pytest

import satrank

MODULES = sorted(p for p in pathlib.Path(satrank.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")
FILES = MODULES + sorted(pathlib.Path(__file__).parent.glob("*.py"))


def _unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_the_scan_finds_an_unused_import():
    source = ("from dataclasses import dataclass, field as dc_field\n"
              "import numpy as np\nimport os.path\n\n"
              "@dataclass\nclass A:\n    x: int = np.int64(0)\n")
    assert _unused_imports(source) == [(1, "dc_field"), (3, "os")]


def _redundant_local_imports(source: str):
    """(line, module) of each import inside a function from a module that the
    file already imports at top level; a lazy import of any other module is
    fine."""
    tree = ast.parse(source)

    def modules(node):
        if isinstance(node, ast.Import):
            return {a.name for a in node.names}
        if isinstance(node, ast.ImportFrom):
            return {"." * node.level + (node.module or "")}
        return set()

    top = set().union(*map(modules, tree.body))
    functions = [n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    return sorted({(node.lineno, module) for fn in functions for node in ast.walk(fn)
                   for module in modules(node) if module in top})


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_no_function_level_import_of_a_top_level_module(path):
    assert _redundant_local_imports(path.read_text()) == []


def test_the_scan_finds_a_redundant_function_level_import():
    source = ("import os\nfrom .fields import a\n\n"
              "def f():\n    from .fields import b\n    import os.path\n    import json\n"
              "    return a, b\n\n"
              "class C:\n    def m(self):\n        def inner():\n            import os\n")
    assert _redundant_local_imports(source) == [(5, ".fields"), (13, "os")]
