"""Span tracer for the traced run.

``Tracer.install`` wraps the public functions of each layer (the modules of
``src/nctoric``) at every module binding other modules call through, so
``polytope.solve_exact`` and ``lvm.solve_exact`` are traced as well as
``linalg.solve_exact``.  Public classes get a span around ``__init__``.
The hottest constructors and methods (``Scalar.__init__``,
``Scalar.floor``, ``ChainElement.__init__``) are only counted: a span per
call would cost more than the work it measures.

Spans hold name, start, end, parent span and job id in flat arrays, stay
in memory while the run lasts, and are written out once at the end.  A
span's self time is its duration minus the durations of its direct
children; calls are synchronous, so children nest inside their parent.
"""

from __future__ import annotations

import dataclasses
import functools
import gzip
import inspect
import time
from array import array

LAYERS = ("scalars", "linalg", "polytope", "fan", "quotient", "lvm", "hj",
          "nctorus", "facevectors", "hochschild", "cli", "svg")

#: (layer, class, method) -> counter; these are counted, not spanned
COUNTED = {("scalars", "Scalar", "__init__"): "scalars.constructed",
           ("scalars", "Scalar", "floor"): "scalars.floor_calls",
           ("hochschild", "ChainElement", "__init__"): "hochschild.chains_built"}

#: public methods that are entry points of their own
SPANNED_METHODS = {("fan", "Fan", "maximal_cones")}


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.counts = dict.fromkeys(list(COUNTED.values()) + [
            "scalars.irrational", "polytope.vertices"], 0)
        self.on = False
        self.job_id = -1
        self._patched = []

    def name_id(self, name) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name, fn, after=None):
        nid = self.name_id(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            i = len(self.start)
            self.name.append(nid)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.job.append(self.job_id)
            self.end.append(0.0)
            self.stack.append(i)
            self.start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end[i] = clock()
                self.stack.pop()
            if after is not None:
                after(self, args)
            return out
        return wrapper

    def counter(self, key, fn):
        counts = self.counts

        if key == "scalars.constructed":
            @functools.wraps(fn)
            def wrapper(obj, *args, **kwargs):
                fn(obj, *args, **kwargs)
                if self.on:
                    counts[key] += 1
                    if obj.d:
                        counts["scalars.irrational"] += 1
            return wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.on:
                counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _patch(self, owner, attr, new):
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self, modules):
        """modules: layer name -> module, plus any other module (such as the
        package itself) whose bindings must be rewritten too."""
        wrapped = {}
        for layer in LAYERS:
            mod = modules[layer]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[obj] = self.span(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj) and not dataclasses.is_dataclass(obj):
                    self._install_class(layer, attr, obj)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patch(mod, attr, wrapped[obj])

    def _install_class(self, layer, attr, cls):
        named = {m for l_, c, m in (*COUNTED, *SPANNED_METHODS) if (l_, c) == (layer, attr)}
        for meth in sorted(named | {"__init__"}):
            if meth not in vars(cls):
                continue
            fn = vars(cls)[meth]
            key = (layer, attr, meth)
            if key in COUNTED:
                self._patch(cls, meth, self.counter(COUNTED[key], fn))
            elif meth == "__init__":
                after = _count_vertices if key[:2] == ("polytope", "SimplePolytope") else None
                self._patch(cls, meth, self.span(f"{layer}.{attr}", fn, after))
            else:
                self._patch(cls, meth, self.span(f"{layer}.{attr}.{meth}", fn))

    def uninstall(self):
        for owner, attr, old in reversed(self._patched):
            setattr(owner, attr, old)
        self._patched = []

    def write(self, path):
        """Write the spans as gzipped tab-separated text."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name\tjob\tparent\tstart\tend\n")
            for i in range(len(self.start)):
                fh.write(f"{self.names[self.name[i]]}\t{self.job[i]}\t"
                         f"{self.parent[i]}\t{self.start[i]!r}\t{self.end[i]!r}\n")


def _count_vertices(tracer, args):
    tracer.counts["polytope.vertices"] += len(args[0].vertices)


def self_times(parent, start, end):
    """(duration, self time) of every span."""
    dur = [e - s for s, e in zip(start, end)]
    own = list(dur)
    for i, p in enumerate(parent):
        if p >= 0:
            own[p] -= dur[i]
    return dur, own


def has_ancestor(parent, name, i, target) -> bool:
    p = parent[i]
    while p >= 0:
        if name[p] == target:
            return True
        p = parent[p]
    return False
