"""What `import msdiff` loads, and what the package declares it needs."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "msdiff"


def test_import_loads_no_scipy_and_no_process_pool():
    # a fresh interpreter: this test process may already hold either
    code = (
        "import sys, msdiff\n"
        "print(' '.join(m for m in sys.modules\n"
        "    if m.split('.')[0] == 'scipy' or m == 'concurrent.futures.process'))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out.split() == []


def _third_party_imports():
    names = set()
    for path in PACKAGE.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"__future__", "msdiff"}


def test_imports_are_exactly_the_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", req).group() for req in project["dependencies"]}
    assert _third_party_imports() == declared
