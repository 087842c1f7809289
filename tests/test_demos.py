"""The walkthrough scripts in demos/ run to completion, and the entropy
demo prints a decay."""

import glob
import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_runs(path):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, path],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    if os.path.basename(path) == "entropy_decay.py":
        inc = re.search(r"largest increment between snapshots: (\S+)", proc.stdout)
        assert inc and float(inc.group(1)) < 0.0, proc.stdout
