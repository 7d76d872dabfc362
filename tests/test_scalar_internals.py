"""The parts `a` and `b` of a Scalar a + b sqrt(d) are read outside
scalars.py only by a named list of functions, the ones that would change
if a Scalar were stored another way.  An AST scan of the package finds
every read of an attribute `.a` or `.b` and allows it only in `ALLOWED`;
every function in `ALLOWED` still reads one, so the list stays exact."""

import ast
import os

import nctoric

PACKAGE = os.path.dirname(os.path.abspath(nctoric.__file__))
PARTS = {"a", "b"}
ALLOWED = {"linalg._pair_row", "linalg._primitive", "hj.hj_expand",
           "hj.quadratic_orbit", "polytope.normal_data",
           "quotient.quotient_data"}


def _part_reads(tree, module):
    """(line, 'module.Class.function' or 'module') of each read of `.a` or
    `.b`."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            scope = f"{scope}.{node.name}"
        if isinstance(node, ast.Attribute) and node.attr in PARTS \
                and isinstance(node.ctx, ast.Load):
            found.append((node.lineno, scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, module)
    return found


def _package_reads():
    reads = []
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py") or name == "scalars.py":
            continue
        with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), name)
        reads += [(f"{name}:{line}", scope)
                  for line, scope in _part_reads(tree, name[:-3])]
    return reads


def test_scalar_parts_are_read_only_by_the_named_functions():
    reads = _package_reads()
    assert [f"{where}: {scope}" for where, scope in reads
            if scope not in ALLOWED] == []
    assert {scope for _, scope in reads} == ALLOWED


def test_the_scan_sees_reads_in_functions_and_methods():
    source = ("x = s.a\n"
              "def f(s):\n    return s.b + s.d\n"
              "class C:\n    def g(self, s):\n        s.a = s.a\n")
    assert _part_reads(ast.parse(source), "m") == [
        (1, "m"), (3, "m.f"), (6, "m.C.g")]
