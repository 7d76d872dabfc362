"""Benchmark for nctoric: seeded job streams, run as a closed loop.

    python3 perfbench/run.py --workload toric_geometry --seed 1 --seconds 15 --trace 0

One client sends one job at a time: a job is one user-level library call
or one in-process ``nctoric.cli.run`` invocation, and the next job starts
when the previous one returns.  Jobs come in rounds (see jobs.py); the run
keeps adding whole rounds until the jobs have been busy for ``--seconds``
and at least 100 jobs are done, so no round is cut short.  Every answer is
checked with the clock stopped, and a wrong answer makes ``correct`` false.

On a shared host (a small cloud VM, say) the CPU's speed can swing by up
to 1.8x within seconds, and CPU time swings with wall time.  So after every
job the runner also times a host probe, a fixed integer loop that touches
no nctoric code and allocates nothing the garbage collector tracks, and
every job time is scaled by PROBE_REF_S / (median probe time of the 5 jobs
around it): the reported times are milliseconds at the probe's reference
speed.  The raw wall-clock figures and the mean scale factor are printed
alongside.

``--trace 0`` prints the end-to-end metrics of one workload.  ``--trace 1``
is the separate traced run: for every workload in turn it runs a share of
the seconds untraced, replays the same jobs with every layer wrapped in
spans (spans.py), checks that both passes gave byte-identical answers and
prints the per-layer metrics of all four workloads together; the
untraced/traced difference is the tracing overhead.  Spans are written to
``.bench_out/spans-seed<seed>.tsv.gz`` at the root of the checkout.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The library is imported from ``src/`` of
the checkout that holds this file; without it the run exits with code 2.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

import jobs  # noqa: E402  (this directory is sys.path[0] when run as a script)
import spans  # noqa: E402

MIN_JOBS = 100
SETUP_REPEATS = 9
#: median time of host_probe on an idle Xeon (Sapphire Rapids) KVM vCPU
PROBE_REF_S = 100e-6
#: a job's scale factor is the median probe over this many jobs either side
PROBE_WINDOW = 2
LEDGER = os.path.join(HERE, "ledger.json")

class NoLibrary(Exception):
    pass


def load_library():
    """Import nctoric afresh from this checkout's src/."""
    if not os.path.isfile(os.path.join(SRC, "nctoric", "__init__.py")):
        raise NoLibrary(f"no nctoric package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    for name in [m for m in sys.modules if m == "nctoric" or m.startswith("nctoric.")]:
        del sys.modules[name]
    package = importlib.import_module("nctoric")
    if os.path.dirname(os.path.dirname(os.path.abspath(package.__file__))) != SRC:
        raise NoLibrary(f"nctoric imported from {package.__file__}, not {SRC}")
    modules = {layer: importlib.import_module(f"nctoric.{layer}") for layer in spans.LAYERS}
    return SimpleNamespace(package=package, modules=modules, **modules)


def host_probe():
    """Fixed pure-integer work; Python ints are not tracked by the garbage
    collector, so the probe's time does not depend on the program's heap."""
    x = 1
    for i in range(500):
        x = (x * 1103515245 + 12345) % 2147483648 ^ (i << 3)
    return x


def probe_seconds():
    t0 = time.perf_counter()
    host_probe()
    return time.perf_counter() - t0


def scaled(durations, probes):
    """Each duration scaled to the reference host speed by the median probe
    time of the jobs within PROBE_WINDOW places of it."""
    out = []
    for i, d in enumerate(durations):
        near = probes[max(0, i - PROBE_WINDOW): i + PROBE_WINDOW + 1]
        out.append(d * PROBE_REF_S / statistics.median(near))
    return out


def setup(workload, seed, workdir):
    """Import the library, generate round 0 and write the CLI's input files;
    repeated SETUP_REPEATS times, the last set-up is kept.  The set-up time
    is the median of the repeats, each scaled like a job by the probes taken
    just before and after it."""
    times = []
    for _ in range(SETUP_REPEATS):
        gc.collect()  # the previous set-up's garbage is not this one's cost
        probes = [probe_seconds() for _ in range(PROBE_WINDOW)]
        t0 = time.perf_counter()
        lib = load_library()
        tasks = jobs.make_round(workload, seed, 0, workdir)
        if workload == "cli_small":
            os.makedirs(workdir, exist_ok=True)
            files = jobs.cli_files(random.Random(f"cli_small/{seed}/files"))
            for name, doc in files.items():
                with open(os.path.join(workdir, name), "w") as fh:
                    json.dump(doc, fh)
        took = time.perf_counter() - t0
        probes += [probe_seconds() for _ in range(PROBE_WINDOW)]
        times.append(took * PROBE_REF_S / statistics.median(probes))
    return lib, tasks, statistics.median(times)


class Run:
    """Drives tasks one job at a time and records what happened."""

    def __init__(self, lib, tracer=None, keep_digests=False, reference=None):
        self.lib = lib
        self.tracer = tracer
        self.keep_digests = keep_digests
        self.reference = reference
        self.durations = []
        self.probes = []
        self.digests = []
        self.job_info = []
        self.failed = []
        self.wrong = []
        self.tasks = 0

    @property
    def busy(self):
        return sum(self.durations)

    def task(self, fn, spec):
        self.tasks += 1
        steps = fn(self.lib, spec)
        try:
            call = next(steps)
        except StopIteration:
            return
        clock = time.perf_counter
        while True:
            tr = self.tracer
            if tr is not None:
                tr.job_id = len(self.durations)
                floors = tr.counts["scalars.floor_calls"]
                tr.on = True
            t0 = clock()
            try:
                result = call.fn()
            except Exception as e:  # any escape is an unexpected outcome
                self._timed(clock() - t0)
                self._after(call, None, tr, floors if tr else 0)
                self.failed.append(f"{call.kind}: {type(e).__name__}: {e}")
                steps.close()
                return
            self._timed(clock() - t0)
            self._after(call, result, tr, floors if tr else 0)
            try:
                call = steps.send(result)
            except StopIteration:
                return
            except jobs.Unexpected as e:
                self.failed.append(f"{call.kind}: {e}")
                return
            except jobs.Wrong as e:
                self.wrong.append(f"{call.kind}: {e}")
                return

    def _timed(self, seconds):
        self.durations.append(seconds)
        self.probes.append(probe_seconds())

    def _after(self, call, result, tr, floors):
        if tr is not None:
            tr.on = False
            fan = next((x for x in (result if isinstance(result, tuple) else (result,))
                        if isinstance(x, self.lib.fan.Fan)), None)
            self.job_info.append((call.kind, call.meta or {}, self.tasks,
                                  tr.counts["scalars.floor_calls"] - floors,
                                  len(fan.cones) if fan is not None else 0))
        if self.keep_digests or self.reference:
            digest = call.kind + " " + jobs.canon(self.lib, result)
            if self.keep_digests:
                self.digests.append(digest)
            if self.reference:
                i = len(self.durations) - 1
                if digest != self.reference[i % len(self.reference)]:
                    self.wrong.append(f"{call.kind}: output {i} differs from the first pass")

    def rounds(self, workload, seed, first, seconds, workdir, min_jobs):
        """Run whole rounds until busy >= seconds and min_jobs are done;
        returns the task lists that ran."""
        ran, tasks = [], first
        while True:
            for fn, spec in tasks:
                self.task(fn, spec)
            ran.append(tasks)
            if self.busy >= seconds and len(self.durations) >= min_jobs:
                return ran
            tasks = jobs.make_round(workload, seed, len(ran), workdir)


def ledger_probes(lib, workload):
    """Run the ledgered known defects of a workload once, outside the job
    stream, and say whether each is still there."""
    with open(LEDGER) as fh:
        ledger = json.load(fh)
    lines = []
    for entry in ledger["known_defects"]:
        if entry["workload"] == workload:
            state = "still present" if jobs.DEFECT_PROBES[entry["id"]](lib) else "fixed"
            lines.append(f"known defect {entry['id']}: {state} "
                         f"(ROADMAP item {entry['roadmap_item']})")
    return lines


def workdir_for(seed):
    return os.path.join(OUT, f"cli-{os.getpid()}-{seed}")


def warm_cli(lib, tasks):
    """First pass of cli_small: the reference digests for later passes."""
    first = Run(lib, keep_digests=True)
    for fn, spec in tasks:
        first.task(fn, spec)
    return first


def end_to_end(workload, seed, seconds):
    workdir = workdir_for(seed)
    try:
        lib, tasks, setup_s = setup(workload, seed, workdir)
        notes = ledger_probes(lib, workload)
        reference = None
        if workload == "cli_small":
            reference = warm_cli(lib, tasks).digests
        run = Run(lib, reference=reference)
        ran = run.rounds(workload, seed, tasks, seconds, workdir, MIN_JOBS)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    raw = run.durations
    d = scaled(raw, run.probes)
    metrics = {
        "jobs_per_s": len(d) / sum(d),
        "job_p50_ms": 1000 * statistics.median(d),
        "job_p90_ms": 1000 * statistics.quantiles(d, n=10)[-1],
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    print(f"workload {workload} seed {seed}: {len(d)} jobs in {len(ran)} rounds, "
          f"busy {run.busy:.3f} s")
    print(f"wall clock: {len(raw) / run.busy:.3f} jobs/s, p50 "
          f"{1000 * statistics.median(raw):.3f} ms, p90 "
          f"{1000 * statistics.quantiles(raw, n=10)[-1]:.3f} ms; mean scale factor "
          f"{sum(d) / run.busy:.4f} (probe median {1e6 * statistics.median(run.probes):.1f} us)")
    print(f"error_rate {len(run.failed) / len(d):.6f} ({len(run.failed)} of {len(d)})")
    for line in notes + run.failed + run.wrong:
        print(line)
    units = metric_units("end_to_end")
    return run, {k: (metrics[k], units[k]) for k in units}


# -- traced run ------------------------------------------------------------------


def per_op_us(fn, n=3000, repeats=7):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        times.append((time.perf_counter() - t0) / n)
    return 1e6 * statistics.median(times)


def scalar_probes(lib):
    from fractions import Fraction as F
    S = lib.scalars.Scalar
    x, y = S(F(3, 7)), S(F(-5, 11))
    u, v = S(F(1, 3), F(2, 5), 2), S(F(3, 4), -1, 2)
    w = S(F(1, 3), 7, 2)
    return {"scalars.mul_q_us": per_op_us(lambda: x * y),
            "scalars.mul_q2_us": per_op_us(lambda: u * v),
            "scalars.cmp_q2_us": per_op_us(lambda: u < v),
            "scalars.floor_q2_us": per_op_us(w.floor)}


def layer_metrics(tracer, runs, seconds_untraced, seconds_traced):
    """Per-layer metrics from the spans and counts of the traced runs, and
    every run's self time by layer."""
    name, parent = tracer.name, tracer.parent
    _, own = spans.self_times(parent, tracer.start, tracer.end)
    calls = dict.fromkeys(tracer.names, 0)
    self_s = dict.fromkeys(tracer.names, 0.0)
    for i, nid in enumerate(name):
        n = tracer.names[nid]
        calls[n] += 1
        self_s[n] += own[i]
    m = {}
    for layer in spans.LAYERS:
        keys = [n for n in tracer.names if n.split(".", 1)[0] == layer]
        m[f"{layer}.calls"] = sum(calls[k] for k in keys)
        m[f"{layer}.self_s"] = sum(self_s[k] for k in keys)
    c = tracer.counts
    m["scalars.constructed"] = c["scalars.constructed"]
    m["scalars.irrational_share"] = c["scalars.irrational"] / max(1, c["scalars.constructed"])
    m["scalars.floor_calls"] = c["scalars.floor_calls"]
    m["linalg.solve_exact.calls"] = calls.get("linalg.solve_exact", 0)
    m["linalg.solve_exact.self_s"] = self_s.get("linalg.solve_exact", 0.0)
    m["linalg.smith.self_s"] = self_s.get("linalg.smith_normal_form", 0.0)
    m["hochschild.chains_built"] = c["hochschild.chains_built"]
    m["fan.cones_built"] = calls.get("fan.Cone", 0)
    m["cli.self_ms"] = 1000 * m["cli.self_s"] / max(1, calls.get("cli.run", 0))

    solve = tracer.name_id("linalg.solve_exact")
    poly = tracer.name_id("polytope.SimplePolytope")
    cone = tracer.name_id("fan.Cone")
    in_poly = sum(1 for i, nid in enumerate(name)
                  if nid == solve and spans.has_ancestor(parent, name, i, poly))
    m["polytope.vertex_yield"] = c["polytope.vertices"] / max(1, in_poly)

    # per-job aggregates; job ids restart with every workload's traced run
    lvm_solves = lvm_configs = cones_made = cones_kept = floors = digits = 0
    offset = 0
    by_run = []
    for run in runs:
        solves_by_job, cones_by_job = {}, {}
        layer_self = dict.fromkeys(spans.LAYERS, 0.0)
        by_run.append(layer_self)
        for i in range(offset, offset + run.span_count):
            nid, j = name[i], tracer.job[i]
            layer_self[tracer.names[nid].split(".", 1)[0]] += own[i]
            if nid == solve:
                solves_by_job[j] = solves_by_job.get(j, 0) + 1
            elif nid == cone:
                cones_by_job[j] = cones_by_job.get(j, 0) + 1
        offset += run.span_count
        configs = set()
        for j, (kind, meta, task, floor_calls, fan_cones) in enumerate(run.job_info):
            if kind.startswith("lvm."):
                lvm_solves += solves_by_job.get(j, 0)
                configs.add(task)
            if fan_cones:
                cones_made += cones_by_job.get(j, 0)
                cones_kept += fan_cones
            if "cf_digits" in meta:
                floors += floor_calls
                digits += meta["cf_digits"]
        lvm_configs += len(configs)
    m["lvm.solves_per_config"] = lvm_solves / max(1, lvm_configs)
    m["fan.cone_reuse"] = cones_made / max(1, cones_kept)
    m["nctorus.floors_per_digit"] = floors / max(1, digits)
    m["trace.overhead_s"] = seconds_traced - seconds_untraced
    m["trace.overhead_share"] = (seconds_traced - seconds_untraced) / seconds_untraced
    return m, by_run


def traced(seed, seconds):
    """Untraced then traced pass over the same jobs, for every workload."""
    tracer = spans.Tracer()
    probes = None
    runs, wrong, failed = [], [], []
    plain_s = traced_s = 0.0
    attempted = 0
    for workload in jobs.WORKLOADS:
        workdir = workdir_for(seed)
        try:
            lib, tasks, _ = setup(workload, seed, workdir)
            if probes is None:
                probes = scalar_probes(lib)
            plain = Run(lib, keep_digests=True)
            ran = plain.rounds(workload, seed, tasks, seconds / len(jobs.WORKLOADS),
                               workdir, 1)
            before = len(tracer.start)
            tracer.install({**lib.modules, "nctoric": lib.package})
            try:
                run = Run(lib, tracer, keep_digests=True)
                for tasks in ran:
                    for fn, spec in tasks:
                        run.task(fn, spec)
            finally:
                tracer.uninstall()
            run.span_count = len(tracer.start) - before
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if run.digests != plain.digests:
            wrong.append(f"{workload}: traced and untraced outputs differ")
        runs.append(run)
        wrong += plain.wrong + run.wrong
        failed += plain.failed + run.failed
        attempted += len(plain.durations) + len(run.durations)
        plain_busy = sum(scaled(plain.durations, plain.probes))
        traced_busy = sum(scaled(run.durations, run.probes))
        plain_s += plain_busy
        traced_s += traced_busy
        print(f"traced {workload}: {len(run.durations)} jobs, untraced {plain_busy:.3f} s, "
              f"traced {traced_busy:.3f} s (at the probe's reference speed)")
    os.makedirs(OUT, exist_ok=True)
    tracer.write(os.path.join(OUT, f"spans-seed{seed}.tsv.gz"))
    metrics, by_run = layer_metrics(tracer, runs, plain_s, traced_s)
    metrics.update(probes)
    for workload, layer_self in zip(jobs.WORKLOADS, by_run):
        print(f"self time {workload}: " + ", ".join(
            f"{layer} {s:.3f} s" for layer, s in layer_self.items() if s))
    for line in failed + wrong:
        print(line)
    units = metric_units("per_layer")
    return wrong, failed, attempted, {k: (metrics[k], units[k]) for k in units}


def metric_units(section):
    """name -> unit of the "end_to_end" or "per_layer" metrics."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        if args.trace:
            wrong, failed, attempted, metrics = traced(args.seed, args.seconds)
        else:
            run, metrics = end_to_end(args.workload, args.seed, args.seconds)
            wrong, failed, attempted = run.wrong, run.failed, len(run.durations)
    except NoLibrary as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 2
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:14.6f} {unit}")
    print(json.dumps({"correct": not wrong, "attempted": attempted,
                      "failed": len(failed),
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
