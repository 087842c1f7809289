"""README drift check: its Python example runs and its config example parses,
so an API change that breaks the documentation fails the suite."""

import re
from pathlib import Path

from msdiff.config import parse_config

README = Path(__file__).resolve().parents[1] / "README.md"


def _block(lang):
    blocks = re.findall(rf"^```{lang}\n(.*?)^```", README.read_text(), re.S | re.M)
    assert len(blocks) == 1, f"README should hold one {lang} block, found {len(blocks)}"
    return blocks[0]


def test_readme_python_example_runs(capsys):
    exec(compile(_block("python"), str(README), "exec"), {})
    drift, rise = (float(tok) for tok in capsys.readouterr().out.split())
    # species masses are conserved and the mixing entropy never rises
    assert drift < 1e-12
    assert rise < 0.0


def test_readme_config_example_parses():
    cfg = parse_config(_block("ini"))
    assert cfg.scenario.n == 3 and cfg.scenario.grid.cells == (64,)
    assert cfg.suites == ["flux-certify", "identity-study"]
    assert cfg.seed == 7 and cfg.out_dir == "results"
    assert cfg.params["flux-certify.samples"] == 500
    assert cfg.scenario.perturbation.amplitude == 1e-3
