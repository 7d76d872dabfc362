"""Exact values become integers only in scalars.py.  `Scalar._triple` gives
one value as (A + B sqrt(d))/C and `scalars._pair_row` a row of values as
integer pairs over a common denominator, so no function outside scalars.py
reads the parts `a` and `b` of a Scalar a + b sqrt(d): `ALLOWED` is empty,
and a Scalar stored another way would change scalars.py alone.  An AST
scan of the package finds every read of an attribute `.a` or `.b` and
allows it only in `ALLOWED`.

A second scan keeps ad-hoc clearing of denominators out: outside
scalars.py, `.numerator` and `.denominator` are read only by the functions
in `FRACTION_READERS`, code on plain Fractions, and each of them still
reads one, so the list stays exact."""

import ast
import os

import nctoric

PACKAGE = os.path.dirname(os.path.abspath(nctoric.__file__))
PARTS = {"a", "b"}
ALLOWED = set()
RATIO = {"numerator", "denominator"}
# hochschild works on Fractions only, never on Scalars
FRACTION_READERS = {"hochschild._sparse_rank"}


def _part_reads(tree, module, attrs=PARTS):
    """(line, 'module.Class.function' or 'module') of each read of an
    attribute in `attrs`, by default `.a` or `.b`."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            scope = f"{scope}.{node.name}"
        if isinstance(node, ast.Attribute) and node.attr in attrs \
                and isinstance(node.ctx, ast.Load):
            found.append((node.lineno, scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, module)
    return found


def _package_reads(attrs=PARTS):
    reads = []
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py") or name == "scalars.py":
            continue
        with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), name)
        reads += [(f"{name}:{line}", scope)
                  for line, scope in _part_reads(tree, name[:-3], attrs)]
    return reads


def test_scalar_parts_are_read_only_by_the_named_functions():
    reads = _package_reads()
    assert [f"{where}: {scope}" for where, scope in reads
            if scope not in ALLOWED] == []
    assert {scope for _, scope in reads} == ALLOWED


def test_fractions_are_cleared_only_in_scalars_and_sparse_rank():
    reads = _package_reads(RATIO)
    assert [f"{where}: {scope}" for where, scope in reads
            if scope not in FRACTION_READERS] == []
    assert {scope for _, scope in reads} == FRACTION_READERS


def test_the_scan_sees_reads_in_functions_and_methods():
    source = ("x = s.a\n"
              "def f(s):\n    return s.b + s.d\n"
              "class C:\n    def g(self, s):\n        s.a = s.a\n")
    assert _part_reads(ast.parse(source), "m") == [
        (1, "m"), (3, "m.f"), (6, "m.C.g")]


def test_the_fraction_scan_sees_numerators_and_denominators():
    source = ("def f(q):\n    return q.numerator, q.real\n"
              "class C:\n    def g(self, s):\n"
              "        return s.a.numerator // s.b.denominator\n")
    assert _part_reads(ast.parse(source), "m", RATIO) == [
        (2, "m.f"), (5, "m.C.g"), (5, "m.C.g")]
