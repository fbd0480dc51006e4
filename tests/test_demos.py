"""Smoke tests for the scripts under demos/.

Each demo runs in a fresh interpreter, as a user would start it, with small
sizes so the whole module takes seconds.  The check is only that it exits
cleanly and prints its report.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import beamfeedback

DEMOS = Path(__file__).resolve().parent.parent / "demos"
SMALL = ["--slots", "5000", "--samples", "20000", "--bins", "4"]


@pytest.mark.parametrize("script, extra", [
    ("price_sweep.py", []),
    ("quantized_feedback.py", ["--training", "2000"]),
    ("solve_and_inspect.py", []),
])
def test_demo_runs(script, extra):
    src = os.path.dirname(os.path.dirname(os.path.abspath(beamfeedback.__file__)))
    child = subprocess.run([sys.executable, str(DEMOS / script), *SMALL, *extra],
                           env=dict(os.environ, PYTHONPATH=src),
                           capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip()
