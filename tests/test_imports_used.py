"""Every imported name is used.  An AST scan of each module of the package
and of the test suite lists the names its imports bind and fails on any
that the module never reads; the re-exports of `__init__.py` and
`from __future__` imports are exempt."""

import ast
import pathlib

import nctoric

PACKAGE = pathlib.Path(nctoric.__file__).resolve().parent
TESTS = pathlib.Path(__file__).resolve().parent


def _unused_imports(tree):
    """(line, name) of each name bound by an import and never read."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # `import a.b` binds `a`
            bound += [(node.lineno, a.asname or a.name.split(".")[0])
                      for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name)
                      for a in node.names if a.name != "*"]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in bound if name not in read]


def test_every_imported_name_is_used():
    paths = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted(TESTS.glob("*.py"))
    offenders = [f"{path.parent.name}/{path.name}:{line}: {name}"
                 for path in paths
                 for line, name in _unused_imports(
                     ast.parse(path.read_text(encoding="utf-8"), path.name))]
    assert offenders == []


def test_the_scan_sees_each_kind_of_import():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport json as j\nimport re\n"
              "from math import gcd, lcm as l\nfrom itertools import *\n"
              "def f(x):\n    return os.sep + gcd(x, 2)\n")
    assert _unused_imports(ast.parse(source)) == [
        (3, "j"), (4, "re"), (5, "l")]
