"""The walkthrough scripts in demos/ run to completion, and the entropy
demo prints a decay."""

import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize(
    "script",
    [
        "flux_inversion.py",
        "entropy_decay.py",
        "twin_stability.py",
        "mollifier_rates.py",
        "weak_form_check.py",
        "binary_convergence.py",
    ],
)
def test_demo_runs(script):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", script)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    if script == "entropy_decay.py":
        inc = re.search(r"largest increment between snapshots: (\S+)", proc.stdout)
        assert inc and float(inc.group(1)) < 0.0, proc.stdout
