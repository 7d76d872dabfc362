"""Every imported name is used, and so is every private module-level name
of the package.  An AST scan of each module of the package and of the
test suite lists the names its imports bind and fails on any that the
module never reads; the re-exports of `__init__.py` and `from __future__`
imports are exempt.  A second scan lists the `_name` functions, classes
and constants defined at the top of each package module and fails on any
that no package or test module reads, as a name or an attribute."""

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


def _private_definitions(tree):
    """(line, name) of each module-level function, class and assigned
    constant whose name has one leading underscore."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            found.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            found += [(node.lineno, t.id) for t in targets
                      if isinstance(t, ast.Name)]
    return [(line, name) for line, name in found
            if name.startswith("_") and not name.startswith("__")]


def _read_names(tree):
    """Every name read in the tree, as a name or as an attribute."""
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)} \
        | {node.attr for node in ast.walk(tree)
           if isinstance(node, ast.Attribute)}


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


def test_every_private_module_level_name_is_read():
    package = sorted(PACKAGE.glob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), path.name)
             for path in package + sorted(TESTS.glob("*.py"))}
    read = set().union(*map(_read_names, trees.values()))
    offenders = [f"{path.name}:{line}: {name}" for path in package
                 for line, name in _private_definitions(trees[path])
                 if name not in read]
    assert offenders == []


def test_the_scan_sees_each_kind_of_private_name():
    source = ("import os\n_LIMIT = 3\n_unread: int = 4\n__all__ = []\n"
              "def _helper():\n    return os.sep\nclass _Box:\n    pass\n"
              "def public():\n    return _LIMIT\n")
    tree = ast.parse(source)
    assert _private_definitions(tree) == [
        (2, "_LIMIT"), (3, "_unread"), (5, "_helper"), (7, "_Box")]
    unread = {name for _, name in _private_definitions(tree)} - \
        _read_names(tree)
    assert unread == {"_unread", "_helper", "_Box"}
