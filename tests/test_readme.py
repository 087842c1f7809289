"""README drift check: its Python example runs, its config example parses,
and the signatures and dotted names it quotes are current, so an API change
that breaks the documentation fails the suite."""

import builtins
import dataclasses
import inspect
import re
import sys
from pathlib import Path

import msdiff
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


def _package_function(name):
    """The function that a README name such as ``run`` or
    ``entropy.gronwall_certificate`` names on the package, or None."""
    obj = msdiff
    for part in name.split("."):
        obj = getattr(obj, part, None)
    return obj if inspect.isfunction(obj) else None


def _methods(name):
    """The methods called ``name``, such as ``state``, of the classes that
    the package defines."""
    classes = {obj for mod_name, mod in list(sys.modules.items())
               if mod_name == "msdiff" or mod_name.startswith("msdiff.")
               for obj in vars(mod).values()
               if inspect.isclass(obj) and obj.__module__.startswith("msdiff")}
    return [m for cls in classes if inspect.isfunction(m := vars(cls).get(name))]


def _required(fn, skip=0):
    params = list(inspect.signature(fn).parameters.values())[skip:]
    return [p.name for p in params if p.default is p.empty]


def test_readme_quotes_current_signatures():
    # each backticked `name(a, b)` names a package function or a method of
    # a package class, and lists its parameters without defaults (and
    # without self), in order; or it names a Python builtin such as `max`
    quoted = re.findall(r"`([A-Za-z_][\w.]*)\(([^`()]*)\)`", README.read_text())
    checked = 0
    for name, args in quoted:
        fn = _package_function(name)
        signatures = [_required(fn)] if fn else [_required(m, 1) for m in _methods(name)]
        if not signatures:
            assert "." not in name and hasattr(builtins, name), (
                f"README quotes {name}({args}), which names no package function, "
                f"method or builtin")
            continue
        listed = [a.strip() for a in args.split(",") if a.strip()]
        assert listed in signatures, f"README quotes {name}({args}); the code has {signatures}"
        checked += 1
    assert checked


def _resolves(name):
    """Whether a dotted README name such as ``sim.MAX_STEPS`` names an
    attribute of the package, or ends in a dataclass field such as
    ``Trajectory.residual_series``."""
    obj = msdiff
    *path, last = name.split(".")
    for part in path:
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return hasattr(obj, last) or (
        dataclasses.is_dataclass(obj) and last in {f.name for f in dataclasses.fields(obj)})


def test_readme_dotted_names_resolve():
    # each backticked `head.name`, or `head.name(...)`, whose head is a
    # package attribute names something that the package still has
    names = re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)(?:\([^`()]*\))?`", README.read_text())
    checked = [name for name in names if hasattr(msdiff, name.split(".")[0])]
    assert [name for name in checked if not _resolves(name)] == []
    assert len(checked) >= 5
