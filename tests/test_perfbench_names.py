"""Every library name the benchmark calls still exists.

The benchmark under perfbench/ reaches the library through a namespace
``lib`` with one attribute per module, so a deleted or renamed public name
would only fail there; this test reads the benchmark's sources (without
importing or changing them) and fails first."""

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
