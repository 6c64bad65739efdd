"""Every name a satrank module imports is used in that module."""

import ast
import pathlib

import pytest

import satrank

MODULES = sorted(p for p in pathlib.Path(satrank.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_the_scan_finds_an_unused_import():
    source = ("from dataclasses import dataclass, field as dc_field\n"
              "import numpy as np\nimport os.path\n\n"
              "@dataclass\nclass A:\n    x: int = np.int64(0)\n")
    assert _unused_imports(source) == [(1, "dc_field"), (3, "os")]
