"""Each demo script runs standalone and exits 0."""

import glob
import os
import subprocess
import sys

import pytest

DEMOS = sorted(glob.glob(os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos", "*.py")))


def test_demos_are_found():
    assert len(DEMOS) == 7


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_runs(path):
    done = subprocess.run([sys.executable, path], capture_output=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr.decode()
