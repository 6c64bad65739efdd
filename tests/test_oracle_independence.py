"""The oracles stay independent of the optimized paths: satrank.oracle imports
from the library only the primitives pinned here, and the one Lie primitive
its commutation test calls, RestrictedLieAlgebra.bracket, reaches the F_q
kernel without going through ad(), the map the optimized search builds its
commuting masks from.  A speed-up of the oracles must come through these
shared primitives, not by calling the paths the oracles check."""

import ast
import pathlib

import satrank

PACKAGE = pathlib.Path(satrank.__file__).parent
ORACLE_IMPORTS = {
    "errors": {"BudgetError", "PreconditionError"},
    "fields": {"FieldSpec", "Mat", "mat_is_p_nilpotent"},
    "groups": {"PermGroup", "perm_mul", "perm_order"},
    "lie": {"RestrictedLieAlgebra"},
}


def _library_imports(source: str):
    """{module: names} of every import of a satrank module, at any depth
    (relative, `from satrank[.x] import` and `import satrank.x`); a module
    imported whole is listed with the name "*module*"."""
    found = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            if node.level:  # from .x import a, from . import x
                module = node.module
            elif node.module == "satrank" or (node.module or "").startswith("satrank."):
                module = node.module.partition(".")[2] or None
            else:
                continue
            for alias in node.names:
                if module:
                    found.setdefault(module, set()).add(alias.name)
                else:
                    found.setdefault(alias.name, set()).add("*module*")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                top, _, rest = alias.name.partition(".")
                if top == "satrank":
                    found.setdefault(rest or "satrank", set()).add("*module*")
    return found


def _method(source: str, cls: str, name: str) -> ast.FunctionDef:
    tree = ast.parse(source)
    klass = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == cls)
    return next(n for n in klass.body if isinstance(n, ast.FunctionDef) and n.name == name)


def _called_names(func: ast.FunctionDef):
    """(receiver, name) of every call in func: receiver is the name the
    attribute is read from (None for a plain call or another expression)."""
    calls = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name):
                calls.add((None, node.func.id))
            elif isinstance(node.func, ast.Attribute):
                value = node.func.value
                calls.add((value.id if isinstance(value, ast.Name) else None, node.func.attr))
    return calls


def test_oracle_imports_only_the_pinned_primitives():
    assert _library_imports((PACKAGE / "oracle.py").read_text()) == ORACLE_IMPORTS


def test_bracket_does_not_go_through_ad():
    calls = _called_names(_method((PACKAGE / "lie.py").read_text(), "RestrictedLieAlgebra",
                                  "bracket"))
    assert calls and "ad" not in {name for _, name in calls}
    assert not {name for receiver, name in calls if receiver == "self"}  # no other method either


def test_the_scans_find_imports_and_calls():
    source = ("import numpy as np\nimport satrank.lie\nfrom . import cliques\n"
              "from .lie import ad, bracket as b\nfrom satrank.fields import Mat\n\n"
              "class A:\n    def bracket(self, x):\n        import satrank\n"
              "        return self.ad(x), g.matmul(x), tuple(x), np.zeros(2)\n")
    assert _library_imports(source) == {
        "lie": {"*module*", "ad", "bracket"}, "cliques": {"*module*"},
        "fields": {"Mat"}, "satrank": {"*module*"}}
    assert _called_names(_method(source, "A", "bracket")) == {
        ("self", "ad"), ("g", "matmul"), (None, "tuple"), ("np", "zeros")}
