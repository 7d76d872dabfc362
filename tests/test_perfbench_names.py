"""Every library name the benchmark calls still exists.

The benchmark under perfbench/ reaches the library through a namespace
``lib`` with one attribute per module, so a deleted or renamed public name
would only fail there; this test reads the benchmark's sources (without
importing or changing them) and fails first.  The traced run also hooks
named methods of some classes, and skips one that the class does not
define itself, so those are checked here too."""

import ast
import importlib
import pathlib
import re

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
#: attributes of the namespace that are not modules of the library
NAMESPACE = {"package", "modules"}


def benchmark_references():
    refs = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        refs.update(re.findall(r"\blib\.(\w+)\.(\w+)", path.read_text()))
    return {(layer, name) for layer, name in refs if layer not in NAMESPACE}


def test_benchmark_names_exist_in_the_library():
    refs = benchmark_references()
    assert ("polytope", "SimplePolytope") in refs and len(refs) > 20
    missing = sorted(f"nctoric.{layer}.{name}" for layer, name in refs
                     if not hasattr(importlib.import_module(f"nctoric.{layer}"),
                                    name))
    assert not missing, missing


def traced_class_hooks():
    """(layer, class, method) of every class hook of the traced run: the
    keys of COUNTED and the members of SPANNED_METHODS, read as literals
    from perfbench/spans.py."""
    found = {}
    for node in ast.parse((PERFBENCH / "spans.py").read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name) \
                and node.targets[0].id in ("COUNTED", "SPANNED_METHODS"):
            found[node.targets[0].id] = ast.literal_eval(node.value)
    return set(found["COUNTED"]) | set(found["SPANNED_METHODS"])


def test_traced_class_hooks_are_defined_on_their_classes():
    hooks = traced_class_hooks()
    assert ("scalars", "Scalar", "__init__") in hooks and len(hooks) >= 4
    missing = []
    for layer, cls, meth in sorted(hooks):
        owner = getattr(importlib.import_module(f"nctoric.{layer}"), cls, None)
        if owner is None or meth not in vars(owner):
            missing.append(f"nctoric.{layer}.{cls}.{meth}")
    assert not missing, missing
