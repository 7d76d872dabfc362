"""pyproject.toml puts src/ on the test path; the CLI tests that start
`python -m nctoric.cli` in a subprocess need it on PYTHONPATH as well."""

import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
