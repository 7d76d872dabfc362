"""Every decision is exact: floating point appears only where the SVG
renderer draws.  An AST scan of the package finds `float(...)`, float
literals and the float functions `sqrt`, `floor` and `ceil` of `math`,
and allows them only in `svg.py` and in `Scalar.__float__`."""

import ast
import os

import nctoric

PACKAGE = os.path.dirname(os.path.abspath(nctoric.__file__))
FLOAT_MATH = {"sqrt", "floor", "ceil"}
ALLOWED = {("svg.py", None), ("scalars.py", "Scalar.__float__")}


def _float_uses(tree):
    """(line, what, enclosing 'Class.function' or None) of each float use."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        what = None
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "float":
            what = "float(...)"
        elif isinstance(node, ast.Constant) and type(node.value) is float:
            what = f"float literal {node.value!r}"
        elif isinstance(node, ast.Attribute) and node.attr in FLOAT_MATH \
                and isinstance(node.value, ast.Name) \
                and node.value.id == "math":
            what = f"math.{node.attr}"
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            names = FLOAT_MATH & {a.name for a in node.names}
            if names:
                what = f"from math import {', '.join(sorted(names))}"
        if what:
            found.append((node.lineno, what, scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, None)
    return found


def _allowed(name, scope):
    return (name, None) in ALLOWED or (name, scope) in ALLOWED


def test_floats_only_in_svg_and_scalar_float():
    offenders = []
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), name)
        offenders += [f"{name}:{line}: {what}"
                      for line, what, scope in _float_uses(tree)
                      if not _allowed(name, scope)]
    assert offenders == []


def test_the_scan_sees_each_kind_of_float_use():
    source = ("import math\nfrom math import floor\n"
              "def f(x):\n    return float(x) + 0.5 + math.sqrt(x)\n"
              "class Scalar:\n    def __float__(self):\n"
              "        return math.ceil(1)\n")
    uses = _float_uses(ast.parse(source))
    assert [what for _, what, _ in uses] == [
        "from math import floor", "float(...)", "float literal 0.5",
        "math.sqrt", "math.ceil"]
    assert [_allowed("scalars.py", scope) for _, _, scope in uses] == [
        False, False, False, False, True]
