"""The benchmark runs end to end on this checkout: a short seeded run of
each workload exits 0 with every answer checked correct.  The benchmark's
sources under perfbench/ are run as they are, never changed."""

import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["quadratic_fields", "cli_small",
                                      "toric_geometry", "hochschild"])
def test_benchmark_smoke(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0.01"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0, last
