"""Self-tests of the benchmark itself (not of nctoric).

    python3 perfbench/selftest.py

They take about half a minute: small slices of every workload are run
traced and untraced, so they need the library under src/.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
import unittest
from array import array

import jobs
import run
import spans


def tracer_with(rows):
    """A Tracer holding synthetic spans (name, parent, start, end)."""
    tr = spans.Tracer()
    for name, parent, start, end in rows:
        tr.name.append(tr.name_id(name))
        tr.parent.append(parent)
        tr.job.append(0)
        tr.start.append(start)
        tr.end.append(end)
    return tr


def small_tasks(lib, workload, seed=5):
    """A cheap slice of round 0 of each workload."""
    tasks = jobs.make_round(workload, seed, 0, run.workdir_for(seed))
    if workload == "toric_geometry":
        return [t for t in tasks if t[0] is not jobs.polytope_task
                or len(t[1][0][0][0]) <= 2][:25]
    if workload == "hochschild":
        return [t for t in tasks if t[1][0][0] == "constants" and t[1][0][1][0] <= 2]
    return tasks[:25]


class SelfTime(unittest.TestCase):
    def test_synthetic_tree(self):
        # root [0, 10] with children a [1, 4] and b [5, 9]; b has c [6, 7]
        tr = tracer_with([("x.root", -1, 0.0, 10.0), ("x.a", 0, 1.0, 4.0),
                          ("x.b", 0, 5.0, 9.0), ("x.c", 2, 6.0, 7.0)])
        dur, own = spans.self_times(tr.parent, tr.start, tr.end)
        self.assertEqual(dur, [10.0, 3.0, 4.0, 1.0])
        self.assertEqual(own, [3.0, 3.0, 3.0, 1.0])
        self.assertEqual(sum(own), dur[0])
        c = tr.name_id("x.c")
        self.assertTrue(spans.has_ancestor(tr.parent, tr.name, 3, tr.name_id("x.root")))
        self.assertFalse(spans.has_ancestor(tr.parent, tr.name, 1, tr.name_id("x.b")))
        self.assertFalse(spans.has_ancestor(tr.parent, tr.name, 0, c))

    def test_wrapped_calls_nest(self):
        tr = spans.Tracer()

        def inner():
            return 1

        inner_w = tr.span("x.inner", inner)
        outer_w = tr.span("x.outer", lambda: inner_w() + inner_w())
        tr.on = True
        self.assertEqual(outer_w(), 2)
        tr.on = False
        self.assertEqual(outer_w(), 2)  # off: no spans recorded
        self.assertEqual(list(tr.parent), [-1, 0, 0])
        self.assertEqual([tr.names[i] for i in tr.name], ["x.outer", "x.inner", "x.inner"])
        self.assertEqual(tr.job, array("i", [-1, -1, -1]))


class Scaling(unittest.TestCase):
    def test_probe_window(self):
        ref = run.PROBE_REF_S
        self.assertEqual(run.scaled([1.0, 2.0], [ref, ref]), [1.0, 2.0])
        # a host twice as slow halves every job; the median of the window
        # ignores one slow probe
        probes = [2 * ref] * 4 + [50 * ref] + [2 * ref] * 4
        self.assertEqual(run.scaled([1.0] * 9, probes), [0.5] * 9)
        # a job is scaled by the probes of the PROBE_WINDOW jobs either side
        # of it, not by those further away
        w = run.PROBE_WINDOW
        probes = [ref] * (w + 1) + [4 * ref] * (2 * w + 1)
        out = run.scaled([1.0] * len(probes), probes)
        self.assertEqual(out[0], 1.0)
        self.assertEqual(out[-1], 0.25)

    def test_probe_is_pure_integer(self):
        self.assertIsInstance(run.host_probe(), int)
        self.assertGreater(run.probe_seconds(), 0)


class TracedMatchesUntraced(unittest.TestCase):
    def test_byte_identical(self):
        lib = run.load_library()
        workdir = run.workdir_for(5)
        os.makedirs(workdir, exist_ok=True)
        try:
            for name, doc in jobs.cli_files(random.Random("cli_small/5/files")).items():
                with open(os.path.join(workdir, name), "w") as fh:
                    json.dump(doc, fh)
            tracer = spans.Tracer()
            runs = []
            for workload in jobs.WORKLOADS:
                tasks = small_tasks(lib, workload)
                plain = run.Run(lib, keep_digests=True)
                for fn, spec in tasks:
                    plain.task(fn, spec)
                before = len(tracer.start)
                tracer.install({**lib.modules, "nctoric": lib.package})
                try:
                    traced = run.Run(lib, tracer, keep_digests=True)
                    for fn, spec in tasks:
                        traced.task(fn, spec)
                finally:
                    tracer.uninstall()
                traced.span_count = len(tracer.start) - before
                runs.append(traced)
                self.assertEqual(plain.wrong + plain.failed, [], workload)
                self.assertGreater(len(plain.digests), 10, workload)
                self.assertEqual(plain.digests, traced.digests, workload)
            self.assertFalse(hasattr(lib.polytope.solve_exact, "__wrapped__"),
                             "uninstall left a wrapper behind")
            metrics, by_run = run.layer_metrics(tracer, runs, 1.0, 1.5)
            self.assertEqual(len(by_run), len(jobs.WORKLOADS))
            for layer in ("polytope", "fan", "lvm", "nctorus", "hochschild", "cli"):
                self.assertGreater(metrics[f"{layer}.calls"], 0, layer)
            self.assertGreater(metrics["polytope.vertex_yield"], 0)
            self.assertGreater(metrics["fan.cone_reuse"], 0)
            self.assertGreater(metrics["lvm.solves_per_config"], 0)
            self.assertAlmostEqual(metrics["trace.overhead_share"], 0.5)
            probes = {"scalars.mul_q_us", "scalars.mul_q2_us", "scalars.cmp_q2_us",
                      "scalars.floor_q2_us"}
            self.assertEqual(set(metrics) | set(probes), set(run.metric_units("per_layer")))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)


class Output(unittest.TestCase):
    def test_every_metric_with_unit(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = run.main(["--workload", "cli_small", "--seed", "3",
                             "--seconds", "0.1", "--trace", "0"])
        self.assertEqual(code, 0)
        lines = out.getvalue().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], run.MIN_JOBS)
        want = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, want)
        for name, unit in want.items():
            self.assertGreater(result["metrics"][name]["value"], 0, name)
            self.assertTrue(any(line.split()[:1] == [name] and line.split()[-1] == unit
                                for line in lines[:-1]), name)
        self.assertTrue(any("known defect hj-expand-1/0" in line for line in lines))

    def test_per_layer_metrics_are_mapped(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
            names = [m["name"] for m in json.load(fh)["per_layer"]]
        with open(run.LEDGER) as fh:
            mapped = json.load(fh)["layer_metric_map"]
        generic = {f"{layer}.{what}" for layer in spans.LAYERS
                   for what in ("calls", "self_s")} | {"trace.overhead_s",
                                                       "trace.overhead_share"}
        for name in names:
            self.assertTrue(name in mapped or name in generic, name)

    def test_bare_directory_fails(self):
        bare = os.path.join(run.OUT, f"bare-{os.getpid()}")
        try:
            os.makedirs(bare)
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "hochschild",
                                "--seed", "1", "--seconds", "1", "--trace", "0"],
                               cwd=bare, capture_output=True, text=True, timeout=120)
            self.assertNotEqual(p.returncode, 0)
            self.assertNotIn('"metrics"', p.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


class ErrorRate(unittest.TestCase):
    def test_cli_outcomes(self):
        self.assertTrue(jobs.cli_outcome(0, 0))
        self.assertTrue(jobs.cli_outcome(2, 2))
        self.assertTrue(jobs.cli_outcome(4, 4))
        self.assertFalse(jobs.cli_outcome(0, 4))  # domain error on a valid input
        self.assertFalse(jobs.cli_outcome(0, 3))
        self.assertFalse(jobs.cli_outcome(0, 1))
        self.assertFalse(jobs.cli_outcome(1, 1))  # exit 1 is never expected
        self.assertFalse(jobs.cli_outcome(3, jobs.EXIT_TRACEBACK))
        self.assertFalse(jobs.cli_outcome(4, 0))  # malformed input accepted

    def test_runner_counts(self):
        lib = run.load_library()
        r = run.Run(lib)
        r.task(jobs.cli_task, (["hj", "expand", "--value", "1/2"], 4))   # expected
        r.task(jobs.cli_task, (["hj", "expand", "--value", "3/2"], 0))   # expected
        r.task(jobs.cli_task, (["hj", "expand", "--value", "1/2"], 0))   # domain error
        r.task(jobs.cli_task, (["hj", "expand", "--value", "1/0"], 3))   # traceback
        self.assertEqual(len(r.durations), 4)
        self.assertEqual(len(r.failed), 2)
        self.assertIn("ZeroDivisionError", r.failed[1])
        self.assertEqual(r.wrong, [])

        def domain_error(lib, spec):
            yield jobs.Call("x", lambda: lib.hj.hj_expand(spec))

        def wrong_answer(lib, spec):
            x = yield jobs.Call("x", lambda: spec)
            jobs.expect(x != spec, "wrong on purpose")

        r = run.Run(lib)
        r.task(domain_error, 0)  # OutOfRange on an input the task calls valid
        r.task(wrong_answer, 1)
        self.assertEqual((len(r.failed), len(r.wrong)), (1, 1))
        self.assertIn("OutOfRange", r.failed[0])


if __name__ == "__main__":
    unittest.main()
