"""Index subsets are enumerated in one place.  An AST scan of each module
of the package lists every read of `itertools.combinations`, under any
import form, and fails unless it sits inside `polytope._subsets`, the
helper that refuses a search past the named cap SUBSET_LIMIT; a search
that needs more must prune, as `polytope._minimal_non_faces` does."""

import ast
import pathlib

import nctoric

PACKAGE = pathlib.Path(nctoric.__file__).resolve().parent


def _combinations_reads(tree):
    """(line, enclosing function or class path) of each read of
    itertools.combinations, by a name bound from itertools or as an
    attribute of the itertools module."""
    names, modules = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "itertools":
            names |= {a.asname or "combinations" for a in node.names
                      if a.name in ("combinations", "*")}
        elif isinstance(node, ast.Import):
            modules |= {a.asname or a.name for a in node.names
                        if a.name == "itertools"}
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if isinstance(child, ast.Name) and child.id in names or \
                    isinstance(child, ast.Attribute) and \
                    child.attr == "combinations" and \
                    isinstance(child.value, ast.Name) and \
                    child.value.id in modules:
                found.append((child.lineno, scope))
            visit(child, inner)

    visit(tree, "")
    return found


def test_only_the_capped_helper_enumerates_subsets():
    reads = [(path.name, scope) for path in sorted(PACKAGE.glob("*.py"))
             for _, scope in _combinations_reads(
                 ast.parse(path.read_text(encoding="utf-8"), path.name))]
    assert reads == [("polytope.py", "_subsets")]
    helper = next(node for node in ast.parse(
        (PACKAGE / "polytope.py").read_text(encoding="utf-8")).body
        if isinstance(node, ast.FunctionDef) and node.name == "_subsets")
    assert "SUBSET_LIMIT" in {node.id for node in ast.walk(helper)
                              if isinstance(node, ast.Name)}


def test_the_scan_sees_each_kind_of_read():
    source = ("import itertools\nimport itertools as it\n"
              "from itertools import combinations, product\n"
              "from itertools import combinations as pick\n"
              "def f(xs):\n    return combinations(xs, 2), product(xs)\n"
              "class C:\n    def g(self, xs):\n"
              "        return it.combinations(xs, 2), pick(xs, 1)\n"
              "h = itertools.combinations\n")
    assert _combinations_reads(ast.parse(source)) == [
        (6, "f"), (9, "C.g"), (9, "C.g"), (10, "")]
