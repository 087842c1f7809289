"""Configuration grammar, validation messages, CLI exit codes, artifacts."""

import csv
import json
import os
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from msdiff import config, sim, suites
from msdiff.cli import main
from msdiff.config import (
    KNOWN_SUITES,
    ParseError,
    ValidationError,
    load_config,
    parse_config,
)
from msdiff.entropy import CSV_COLUMNS

MINIMAL = "n = 2\nD.1.2 = 1.0\n"

# the nine settable suite parameters at their defaults
DEFAULT_PARAMS = {
    "flux-certify.samples": 10000,
    "spectral-certify.samples": 10000,
    "spectral-certify.operator_samples": 1000,
    "identity-study.levels": 3,
    "identity-study.cells": 32,
    "identity-study.t_final": 0.002,
    "twin-study.halvings": 3,
    "convergence-study.levels": 3,
    "convergence-study.cells": 64,
}


def test_minimal_config_defaults():
    cfg = parse_config(MINIMAL)
    sc = cfg.scenario
    assert sc.n == 2
    assert sc.grid.cells == (64,) and sc.grid.lengths == (1.0,)
    assert sc.t_final == 0.01 and sc.cfl == 0.25 and sc.scheme == "euler"
    assert sc.delta == 0.05 and sc.cadence == 1 and sc.preset == "sine_mix"
    assert sc.dt is None and sc.perturbation is None
    assert cfg.suites == [] and cfg.seed == 0 and cfg.workers == 1
    assert cfg.out_dir == "out" and cfg.params == DEFAULT_PARAMS and cfg.warnings == []


def test_full_config_round_trip():
    cfg = parse_config(
        """
        # three species on a rectangle
        n = 3
        dim = 2
        cells = 16 24
        lengths = 1.0 2.0
        D.1.2 = 1.0
        D.1.3 = 2.0   # inline comment
        D.2.3 = 3.0
        t_final = 0.004
        dt = 0.0001
        scheme = heun
        cadence = 4
        preset = sine_mix
        amplitude = 0.3
        mode = 2
        weights = 0.2 0.3 0.5
        delta = 0.1
        seed = 11
        out = results
        workers = 3
        suites = flux-certify spectral-certify
        perturb.amplitude = 0.01
        perturb.mode = 2
        perturb.species = 2 3
        flux-certify.samples = 500
        """
    )
    sc = cfg.scenario
    assert sc.grid.cells == (16, 24) and sc.grid.lengths == (1.0, 2.0)
    assert sc.D.d[0, 2] == 2.0 and sc.D.d[2, 1] == 3.0
    assert sc.scheme == "heun" and sc.dt == 0.0001 and sc.cadence == 4
    assert np.array_equal(sc.weights, [0.2, 0.3, 0.5])
    assert sc.perturbation.species == (1, 2)  # config indices are 1-based
    assert sc.perturbation.amplitude == 0.01
    assert cfg.suites == ["flux-certify", "spectral-certify"]
    assert cfg.seed == 11 and cfg.out_dir == "results" and cfg.workers == 3
    assert cfg.params == {**DEFAULT_PARAMS, "flux-certify.samples": 500}


def test_symmetric_duplicate_diffusivity_is_accepted():
    cfg = parse_config("n = 2\nD.1.2 = 1.5\nD.2.1 = 1.5\n")
    assert cfg.scenario.D.d[0, 1] == 1.5


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("n = 2\njust words\n", "line 2: expected 'key = value'"),
        ("= 5\n", "line 1: empty key"),
        ("n =\n", "line 1: empty value"),
        ("n = 2\nn = 3\n", "duplicate key 'n' (first set on line 1)"),
    ],
)
def test_parse_errors_carry_line_numbers(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_config(text)
    assert fragment in str(err.value)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("D.1.2 = 1.0\n", "missing required key 'n'"),
        ("n = 1\nD.1.2 = 1.0\n", "at least two species"),
        ("n = 2\ndim = 4\nD.1.2 = 1.0\n", "dim must be 1, 2, or 3"),
        ("n = 2\ndim = 2\ncells = 8 8 8\nD.1.2 = 1.0\n", "cells needs one entry or 2"),
        ("n = 2\ncells = 1\nD.1.2 = 1.0\n", "cells must be at least 2"),
        ("n = 2\nlengths = -1.0\nD.1.2 = 1.0\n", "lengths must be positive"),
        ("n = 2\nD.1.2 = 1.0\nt_final = 0\n", "t_final must be positive"),
        ("n = 2\nD.1.2 = 1.0\ndt = -0.1\n", "dt must be positive"),
        ("n = 2\nD.1.2 = 1.0\ncfl = 1.5\n", "cfl must lie in (0, 1]"),
        ("n = 2\nD.1.2 = 1.0\nscheme = rk4\n", "scheme must be 'euler' or 'heun'"),
        ("n = 2\nD.1.2 = 1.0\ncadence = 0\n", "cadence must be >= 1"),
        ("n = 2\nD.1.2 = 1.0\nworkers = 0\n", "workers must be >= 1"),
        ("n = 2\nD.1.2 = 1.0\nweights = 0.5\n", "weights needs 2 entries"),
        ("n = 2\nD.1.2 = 1.0\nsuites = nonsense\n", "unknown suite 'nonsense'"),
        ("n = 2\nD.1.2 = 1.0\nbogus = 1\n", "line 3: unknown key 'bogus'"),
        ("n = 2\nD.1.2 = 1.0\nn.bogus = 1\n", "unknown key 'n.bogus'"),
        ("n = 2\n", "missing diffusivities for species pairs [(1, 2)]"),
        ("n = 2\nD.1.2 = 1.0\nD.2.1 = 2.0\n", "breaks symmetry"),
        ("n = 2\nD.1.2 = -1.0\n", "positivity"),
        ("n = 2\nD.1.1 = 1.0\n", "two distinct species"),
        ("n = 2\nD.1.3 = 1.0\n", "two distinct species in 1..2"),
        ("n = 2\nD.a.b = 1.0\n", "must be integers"),
        ("n = 2\nD.1.2 = 1.0\ndelta = 0\n", "delta must be positive"),
        ("n = 2\nD.1.2 = 1.0\ndelta = 1.5\n", "delta must lie in (0, 1)"),
        (
            "n = 2\nD.1.2 = 1.0\nperturb.amplitude = 0.01\nperturb.species = 1 1\n",
            "two distinct species",
        ),
        (
            "n = 2\nD.1.2 = 1.0\nperturb.amplitude = 0.01\nperturb.species = 0 2\n",
            "species must lie in 1..2",
        ),
        (
            "n = 3\nD.1.2 = 1\nD.1.3 = 1\nD.2.3 = 1\npreset = binary_mode\n",
            "scenario rejected",
        ),
        ("n = 2\nD.1.2 = 1.0\ncells = abc\n", "must be a list of"),
        ("n = 2\nD.1.2 = 1.0\ncells = x\n", "line 3: cells must be a list of integers"),
        ("n = 2\nD.1.2 = 1.0\nt_final = inf\n", "line 3: t_final must be a finite number"),
        ("n = 2\nD.1.2 = inf\n", "line 2: D.1.2 must be a finite number"),
        ("n = 2\nD.1.2 = nan\n", "line 2: D.1.2 must be a finite number"),
        ("n = 2\nD.1.2 = 1.0\ndelta = nan\n", "line 3: delta must be a finite number"),
        ("n = 2\nD.1.2 = 1.0\nlengths = inf\n", "line 3: lengths must be a list of finite numbers"),
        (
            "n = 2\nD.1.2 = 1.0\nidentity-study.t_final = inf\n",
            "line 3: identity-study.t_final must be a finite number",
        ),
        ("n = 2\nD.1.2 = 1.0\nlengths = 1e-300\n", "scenario rejected: stability bound"),
        ("n = 2\nD.1.2 = 1.0\ndt = 0.001\n", "line 3: dt=0.001 exceeds the stability bound"),
        ("n = 2\nD.1.2 = 1.0\nseed = -1\n", "line 3: seed must be >= 0"),
        ("n = 2\nD.1.2 = 1.0\ncfl = 1e-300\n", "scenario rejected: the run needs"),
        ("n = 2\nD.1.2 = 1.0\nt_final = 1e300\n", "scenario rejected: the run needs"),
    ],
)
def test_validation_errors(text, fragment):
    with pytest.raises(ValidationError) as err:
        parse_config(text)
    assert fragment in str(err.value), str(err.value)


def test_twin_study_delta_gate_and_warning():
    base = "n = 2\nD.1.2 = 1.0\nsuites = twin-study\n"
    with pytest.raises(ValidationError) as err:
        parse_config(base + "delta = 1.5\n")
    assert "line 4: delta = 1.5: delta must lie in (0, 1) with delta**4 > 0, got 1.5" in str(err.value)
    cfg = parse_config(base + "delta = 0.05\n")
    assert len(cfg.warnings) == 1
    assert "eroded margin" in cfg.warnings[0]
    # a delta inside the certified window warns about nothing
    tiny = parse_config(base + "delta = 0.0001\n")
    assert tiny.warnings == []


# values the twin certificate cannot take: a delta whose delta**4 (the
# rate's divisor) underflows to 0, and a D whose constants overflow (they
# square 1 / the smallest D.i.j); other suites run with them
@pytest.mark.parametrize("text, fragment", [
    (MINIMAL + "cells = 8\ndelta = 1e-300\n",
     "line 4: delta = 1e-300: delta must lie in (0, 1) with delta**4 > 0, got 1e-300"),
    ("n = 2\nD.1.2 = 1e-300\ncells = 8\nt_final = 0.001\n",
     "line 2: D.1.2 = 1e-300: overflows the twin certificate's constants"),
    ("n = 3\nD.1.2 = 1.0\nD.1.3 = 1e-200\nD.2.3 = 1e-100\ncells = 8\n",
     "line 3: D.1.3 = 1e-200: overflows the twin certificate's constants"),
])
def test_twin_study_refuses_what_its_certificate_cannot_take(tmp_path, capsys, text, fragment):
    assert parse_config(text).warnings == []
    with pytest.raises(ValidationError) as err:
        parse_config(text + "suites = twin-study\n")
    assert str(err.value).startswith(fragment), err.value
    # refused before any run, whether the config or the flag selects it
    out = tmp_path / "out"
    assert main([write_cfg(tmp_path, text + "suites = twin-study\n"), "--out", str(out)]) == 2
    assert f"error: {fragment}" in capsys.readouterr().err
    assert main([write_cfg(tmp_path, text), "--out", str(out), "--suite", "twin-study"]) == 2
    assert f"error: {fragment}" in capsys.readouterr().err
    assert not out.exists()


# values that pass the config checks but fail once the suites run: a D
# whose spread the force-flux solve fails on (the kernel's residual gate
# fails from D.1.2 = 1e-6 beside these D.1.3 and D.2.3, a limit that
# depends on the whole D and the data, so parsing sets no threshold), quoted by its smallest and largest D.i.j,
# and a twin delta whose certificate rate c5 / delta**4 overflows
@pytest.mark.parametrize("suite", ["identity-study", "twin-study"])
def test_a_d_that_the_flux_solve_fails_on_exits_two_with_its_lines(tmp_path, capsys, suite):
    text = ("n = 3\nD.1.2 = 1e-150\nD.1.3 = 1.0\nD.2.3 = 2.0\ncells = 8\nt_final = 0.001\n"
            f"suites = {suite}\n")
    assert main([write_cfg(tmp_path, text), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line 2: D.1.2 = 1e-150, line 4: D.2.3 = 2.0: "
                          "the force-flux solve fails on this D: "), err
    assert err.count("\n") == 1


def test_a_twin_delta_whose_rate_overflows_exits_two_with_its_line(tmp_path, capsys):
    text = ("n = 2\nD.1.2 = 1.0\ncells = 8\nt_final = 0.001\ndelta = 1e-80\n"
            "twin-study.halvings = 2\nsuites = twin-study\n")
    assert main([write_cfg(tmp_path, text), "--out", str(tmp_path / "out")]) == 2
    out = capsys.readouterr()
    assert out.err.startswith("error: line 5: delta = 1e-80: the certificate's rate"), out.err
    assert out.err.count("\n") == 1 and "FAIL" not in out.out


def test_perturbation_defaults_and_absence():
    cfg = parse_config("n = 2\nD.1.2 = 1.0\nperturb.mode = 3\n")
    assert cfg.scenario.perturbation is None
    cfg = parse_config("n = 2\nD.1.2 = 1.0\nperturb.amplitude = 0.01\n")
    assert cfg.scenario.perturbation.species == (0, 1)
    assert cfg.scenario.perturbation.mode == 1


@pytest.mark.parametrize(
    "species, fragment",
    [("7 7", "line 5: perturb.species needs two distinct species"),
     ("1 4", "line 5: species must lie in 1..3")],
)
def test_perturb_species_are_checked_without_an_amplitude(tmp_path, capsys, species, fragment):
    text = f"n = 3\nD.1.2 = 1.0\nD.1.3 = 2.0\nD.2.3 = 3.0\nperturb.species = {species}\n"
    with pytest.raises(ValidationError) as err:
        parse_config(text)
    assert fragment in str(err.value), str(err.value)
    assert main([write_cfg(tmp_path, text)]) == 2
    assert fragment in capsys.readouterr().err


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ParseError) as err:
        load_config(str(tmp_path / "nope.cfg"))
    assert "cannot read config" in str(err.value)


def test_config_that_is_not_utf8_exits_two(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_bytes(MINIMAL.encode() + b"out = caf\xff\n")
    with pytest.raises(ParseError) as err:
        load_config(str(path))
    assert f"cannot read config {path}" in str(err.value)
    assert main([str(path)]) == 2
    assert "error: cannot read config" in capsys.readouterr().err


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


SMALL_RUN = """
n = 3
cells = 16
D.1.2 = 1.0
D.1.3 = 2.0
D.2.3 = 3.0
t_final = 0.001
suites = flux-certify identity-study
seed = 7
flux-certify.samples = 300
identity-study.levels = 2
identity-study.cells = 16
identity-study.t_final = 0.001
"""


def test_cli_end_to_end_pass(tmp_path, capsys):
    out = tmp_path / "out"
    code = main([write_cfg(tmp_path, SMALL_RUN), "--out", str(out)])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert any(line.startswith("[flux-certify] PASS") for line in lines)
    assert any(line.startswith("[identity-study] PASS") for line in lines)
    assert not any("FAIL" in line for line in lines)

    summary = json.loads((out / "summary.json").read_text())
    assert summary["exit_code"] == 0 and summary["seed"] == 7
    assert set(summary["suites"]) == {"flux-certify", "identity-study"}
    for entry in summary["suites"].values():
        assert entry["passed"] is True
        for check in entry["checks"]:
            assert {"check", "value", "threshold", "comparison", "passed"} <= set(check)

    manifest = json.loads((out / "manifest.json").read_text())
    names = {f["name"] for f in manifest["files"]}
    assert {"summary.json", "identity_study.csv"} <= names

    with open(out / "identity_study.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["level", "h", "residual", "observed_order"]
    assert len(rows) == 3  # one row per refinement level


def test_cli_reruns_are_byte_identical(tmp_path):
    text = SMALL_RUN.replace(
        "suites = flux-certify identity-study",
        "suites = flux-certify spectral-certify identity-study",
    ) + "spectral-certify.samples = 300\nspectral-certify.operator_samples = 60\n"
    assert parse_config(text).suites[1] == "spectral-certify"
    cfg = write_cfg(tmp_path, text)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main([cfg, "--out", str(out1)]) == 0
    assert main([cfg, "--out", str(out2), "--workers", "2"]) == 0
    for name in ("summary.json", "manifest.json", "identity_study.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_cli_suite_selection_overrides_config(tmp_path):
    out = tmp_path / "out"
    code = main(
        [
            write_cfg(tmp_path, SMALL_RUN),
            "--out",
            str(out),
            "--suite",
            "flux-certify",
            "--suite",
            "flux-certify",
        ]
    )
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert list(summary["suites"]) == ["flux-certify"]


def test_cli_config_error_exits_two(tmp_path, capsys):
    code = main([write_cfg(tmp_path, "n = 2\n")])
    assert code == 2
    assert "error:" in capsys.readouterr().err
    code = main([str(tmp_path / "missing.cfg")])
    assert code == 2


def test_cli_refuses_an_over_long_run_before_building_its_state(tmp_path, capsys):
    # ten million cells need a 160 MB initial state and about 10^12 steps;
    # the step cap refuses the run before any of that state is allocated
    path = write_cfg(tmp_path, "n = 2\nD.1.2 = 1\ncells = 10000000\n")
    tracemalloc.start()
    try:
        code = main([path, "--out", str(tmp_path / "out")])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert "scenario rejected: the run needs" in capsys.readouterr().err
    assert peak < 8 * 2**20


@pytest.mark.parametrize(
    "line,fragment",
    [
        ("flux-certify.samples = abc", "flux-certify.samples must be an integer"),
        ("identity-study.levels = 1", "identity-study.levels must be at least 2"),
        ("convergence-study.levels = 1", "convergence-study.levels must be at least 2"),
        ("flux-certify.bogus = 3", "unknown key 'flux-certify.bogus'"),
        ("flux-certify.species_min = 5", "unknown key 'flux-certify.species_min'"),
        ("flux-certify.samples = 0", "flux-certify.samples must be at least 1"),
        (
            "spectral-certify.operator_samples = 0",
            "spectral-certify.operator_samples must be at least 1",
        ),
        ("twin-study.halvings = 1", "twin-study.halvings must be at least 2"),
        ("identity-study.cells = 1", "identity-study.cells must be at least 2"),
        ("identity-study.t_final = 0", "identity-study.t_final must be greater than 0"),
        ("convergence-study.cells = 0", "convergence-study.cells must be at least 2"),
        # sample counts past their memory bound are refused while parsing,
        # quoting the line, before any allocation
        (
            "flux-certify.samples = 99999999999999",
            "flux-certify.samples = 99999999999999: must be at most 67108864",
        ),
        (
            "spectral-certify.samples = 99999999999999",
            "spectral-certify.samples = 99999999999999: must be at most 5368709",
        ),
        (
            "spectral-certify.operator_samples = 99999999999999",
            "spectral-certify.operator_samples = 99999999999999: must be at most 1073741",
        ),
        (
            "identity-study.t_final = 1e9",
            # the refusal quotes the key's line and its text, not the parsed value
            "scenario rejected: identity-study: the level-0 run of identity-study.cells = 32 "
            "(default), line 4: identity-study.t_final = 1e9: the run needs 8.192e+12 steps",
        ),
        # valid weights that the study's own perturbation pushes off the simplex
        (
            "weights = 0.01 0.99",
            "scenario rejected: identity-study: concentrations outside [0, 1]",
        ),
        (
            "weights = 0.00001 0.99999",
            "scenario rejected: twin-study: concentrations outside [0, 1]",
        ),
    ],
)
def test_cli_bad_suite_parameter_exits_two(tmp_path, capsys, line, fragment):
    suite = next(s for s in KNOWN_SUITES if s in line + fragment)
    text = MINIMAL + f"suites = {suite}\n{line}\n"
    out = tmp_path / "out"
    code = main([write_cfg(tmp_path, text), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    if not fragment.startswith("scenario rejected"):
        fragment = f"line 4: {fragment}"
    assert f"error: {fragment}" in err, err
    assert "Traceback" not in err
    assert not out.exists()


# traced bytes per sample, as measured for suites._SAMPLE_MEMORY
SAMPLE_BYTES = {
    "flux-certify.samples": 13.6,
    "spectral-certify.samples": 189,
    "spectral-certify.operator_samples": 906,
}


@pytest.mark.parametrize("key", SAMPLE_BYTES)
def test_sample_counts_are_bounded_by_their_memory(key):
    _, default, low, high = suites.SUITE_PARAMS[key]
    # the largest count stays under 1 GiB at the measured bytes per sample
    assert low <= default < high and SAMPLE_BYTES[key] * high < suites._SAMPLE_MEMORY == 2**30
    # parsed only: no count near the bound is ever run
    assert parse_config(MINIMAL + f"{key} = {high}\n").params[key] == high
    with pytest.raises(ValidationError, match=f"^line 3: {key} = {high + 1}: must be at most {high}$"):
        parse_config(MINIMAL + f"{key} = {high + 1}\n")
    # a count that got past parsing was killed while allocating
    with pytest.raises(ValidationError, match=f"^line 4: {key} = 4000000000: must be at most {high}$"):
        parse_config(MINIMAL + f"# huge\n{key} = 4000000000\n")


@pytest.mark.parametrize(
    "lines,fragment",
    [
        (
            "suites = twin-study\ntwin-study.halvings = 14\n",
            "scenario rejected: twin-study: the finest run of line 5: twin-study.halvings = 14: "
            "the run needs 3.277e+04 steps, more than 1000",
        ),
        (
            "suites = convergence-study\nconvergence-study.cells = 4\n"
            "convergence-study.levels = 7\n",
            "scenario rejected: convergence-study: the finest run of "
            "line 6: convergence-study.levels = 7: the run needs 5.243e+03 steps, more than 1000",
        ),
        (
            "suites = identity-study\nidentity-study.levels = 4\n",
            "scenario rejected: identity-study: the finest run of "
            "line 5: identity-study.levels = 4: the run needs 1.088e+03 steps, more than 1000",
        ),
        (
            "suites = identity-study\nidentity-study.t_final = 0.2\n",
            "scenario rejected: identity-study: the level-0 run of identity-study.cells = 32 "
            "(default), line 5: identity-study.t_final = 0.2: the run needs 1.638e+03 steps, "
            "more than 1000",
        ),
        (
            "suites = identity-study\nidentity-study.cells = 256\n",
            "scenario rejected: identity-study: the level-0 run of line 5: "
            "identity-study.cells = 256, identity-study.t_final = 0.002 (default): the run "
            "needs 1.049e+03 steps, more than 1000",
        ),
        (
            "suites = identity-study\nidentity-study.cells = 64\nidentity-study.t_final = 0.05\n",
            "scenario rejected: identity-study: the level-0 run of line 5: "
            "identity-study.cells = 64, line 6: identity-study.t_final = 0.05: the run "
            "needs 1.638e+03 steps, more than 1000",
        ),
    ],
)
def test_cli_ladder_rung_over_the_step_cap_exits_two_before_any_run(
    tmp_path, capsys, monkeypatch, lines, fragment
):
    # with the cap at 1000 steps, the base run fits but a study's run does not
    monkeypatch.setattr(sim, "MAX_STEPS", 1000)
    runs = []
    monkeypatch.setattr(sim, "run", lambda scenario: runs.append(scenario))
    monkeypatch.setattr(sim, "run_lockstep", lambda scenarios: runs.extend(scenarios))
    text = MINIMAL + "cells = 4\n" + lines
    out = tmp_path / "out"
    assert main([write_cfg(tmp_path, text), "--out", str(out)]) == 2
    assert f"error: {fragment}" in capsys.readouterr().err
    assert runs == [] and not out.exists()


def test_cli_suite_flag_checks_the_selected_study(tmp_path, capsys):
    # the config selects nothing that perturbs; --suite selects identity-study
    text = MINIMAL + "suites = flux-certify\nweights = 0.01 0.99\n"
    path = write_cfg(tmp_path, text)
    assert parse_config(text).suites == ["flux-certify"]
    out = tmp_path / "out"
    code = main([path, "--out", str(out), "--suite", "identity-study"])
    assert code == 2
    assert "scenario rejected: identity-study" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "samples,species", [(1, [2]), (30, [2, 3, 4, 5, 6]), (10000, [2, 3, 4, 5, 6])]
)
def test_cli_flux_certify_draws_exactly_samples(tmp_path, samples, species):
    text = MINIMAL + f"suites = flux-certify\nflux-certify.samples = {samples}\n"
    out = tmp_path / "out"
    assert main([write_cfg(tmp_path, text), "--out", str(out)]) == 0
    details = json.loads((out / "summary.json").read_text())["suites"]["flux-certify"]["details"]
    assert details["samples"] == samples
    assert details["species"] == species


def test_cli_unselected_suite_parameter_is_still_checked(tmp_path, capsys):
    text = MINIMAL + "suites = flux-certify\ntwin-study.halvings = abc\n"
    code = main([write_cfg(tmp_path, text), "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "error: line 4: twin-study.halvings must be an integer" in err, err


def test_cli_bad_parameter_of_a_later_suite_writes_nothing(tmp_path, capsys):
    # identity-study would write its CSV first if parameters were checked lazily
    text = (
        MINIMAL
        + "suites = identity-study twin-study\n"
        + "identity-study.levels = 2\nidentity-study.cells = 8\n"
        + "twin-study.halvings = 1\n"
    )
    out = tmp_path / "out"
    code = main([write_cfg(tmp_path, text), "--out", str(out)])
    assert code == 2
    assert "error: line 6: twin-study.halvings must be at least 2" in capsys.readouterr().err
    assert not out.exists()


def test_cli_negative_seed_flag_exits_two(tmp_path, capsys):
    out = tmp_path / "out"
    code = main([write_cfg(tmp_path, MINIMAL + "suites = flux-certify\n"),
                 "--seed", "-1", "--out", str(out)])
    assert code == 2
    assert "--seed must be >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_cli_bad_workers_flag(tmp_path, capsys):
    code = main([write_cfg(tmp_path, MINIMAL + "suites = flux-certify\n"),
                 "--workers", "0"])
    assert code == 2
    assert "--workers" in capsys.readouterr().err


@pytest.mark.parametrize("how", ["--out naming a file", "out = a path under a file"])
def test_cli_output_path_that_cannot_be_a_directory_exits_two(
    tmp_path, capsys, monkeypatch, how
):
    def refuse(cfg, rng):
        raise AssertionError("a suite ran before the output path was checked")

    monkeypatch.setitem(suites._SUITES, "flux-certify", refuse)
    blocker = tmp_path / "blocker"
    blocker.write_text("kept\n")
    text = MINIMAL + "suites = flux-certify\n"
    if how.startswith("--out"):
        target, argv = blocker, ["--out", str(blocker)]
    else:
        target, argv = blocker / "out", []
        text += f"out = {target}\n"
    code = main([write_cfg(tmp_path, text)] + argv)
    assert code == 2
    assert f"error: cannot create output directory {target}" in capsys.readouterr().err
    assert blocker.read_text() == "kept\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["blocker", "run.cfg"]


def test_cli_no_suites_warns_and_passes(tmp_path, capsys):
    code = main([write_cfg(tmp_path, MINIMAL)])
    assert code == 0
    assert "nothing to do" in capsys.readouterr().out


def test_cli_failing_suite_exits_one(tmp_path, capsys, monkeypatch):
    def stub(cfg, rng):
        return suites.SuiteResult(
            name="flux-certify",
            passed=False,
            checks=[
                {
                    "check": "stubbed",
                    "operation": "forced failure",
                    "value": 1.0,
                    "threshold": 0.0,
                    "comparison": "<=",
                    "passed": False,
                }
            ],
        )

    monkeypatch.setitem(suites._SUITES, "flux-certify", stub)
    out = tmp_path / "out"
    code = main([write_cfg(tmp_path, MINIMAL + "suites = flux-certify\n"),
                 "--out", str(out)])
    assert code == 1
    assert "[flux-certify] FAIL stubbed" in capsys.readouterr().out
    summary = json.loads((out / "summary.json").read_text())
    assert summary["exit_code"] == 1


def test_twin_delta_warning_surfaces_in_logs(tmp_path, capsys):
    text = MINIMAL + "suites = twin-study\ntwin-study.halvings = 2\nt_final = 0.001\ncells = 16\n"
    out = tmp_path / "out"
    code = main([write_cfg(tmp_path, text), "--out", str(out)])
    assert code == 0
    captured = capsys.readouterr().out
    assert "warning: delta=0.05" in captured
    summary = json.loads((out / "summary.json").read_text())
    assert summary["warnings"] and "eroded margin" in summary["warnings"][0]
    # the per-snapshot diagnostics table follows the entropy report schema
    with open(out / "twin_diagnostics.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == CSV_COLUMNS
    assert len(rows) > 1


def test_twin_delta_warning_follows_the_suite_flag(tmp_path):
    small = MINIMAL + "twin-study.halvings = 2\nt_final = 0.001\ncells = 16\n"
    # selected only on the command line: the warning is written
    out = tmp_path / "flag"
    assert main([write_cfg(tmp_path, small), "--out", str(out),
                  "--suite", "twin-study"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["suites"]["twin-study"]["details"]["delta_admissible"] is False
    assert len(summary["warnings"]) == 1 and "eroded margin" in summary["warnings"][0]
    # named in the config but deselected on the command line: no warning
    out = tmp_path / "deselected"
    cfg = write_cfg(tmp_path, small + "suites = twin-study\nflux-certify.samples = 20\n",
                    "twin.cfg")
    assert main([cfg, "--out", str(out), "--suite", "flux-certify"]) == 0
    assert json.loads((out / "summary.json").read_text())["warnings"] == []


# Config grammar fuzz: a valid three-species base with up to five keys
# overwritten by tokens from a fixed pool of edge values. Parsing alone
# (no suite runs) must either succeed or raise one of the two config errors.
FUZZ_BASE = {"n": "3", "D.1.2": "1.0", "D.1.3": "2.0", "D.2.3": "3.0", "cells": "16"}
FUZZ_KEYS = sorted(
    {
        "n", "dim", "t_final", "dt", "cfl", "scheme", "delta", "cadence",
        "preset", "amplitude", "mode", "seed", "out", "workers",
        "perturb.amplitude", "perturb.mode",
        "cells", "lengths", "weights", "suites", "perturb.species",
        "D.1.2", "D.2.1", "D.1.3", "D.2.3", "D.3.3", "D.1.4", "D.x.2",
        "flux-certify.species_min", "mollifier-study.cells", "bogus",
    }
    | set(suites.SUITE_PARAMS)
    | set(config._SCALARS)
    | set(config._LISTS)
)
FUZZ_TOKENS = [
    "inf", "-inf", "nan", "1e-300", "1e300", "0", "-1", "1", "2", "3",
    "8", "64", "0.5", "0.001", "1.5", "abc", "euler", "heun", "uniform",
    "binary_mode", "flux-certify", "twin-study",
]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    st.dictionaries(
        st.sampled_from(FUZZ_KEYS),
        st.lists(st.sampled_from(FUZZ_TOKENS), min_size=1, max_size=3).map(" ".join),
        max_size=5,
    )
)
def test_config_fuzz_raises_only_config_errors(edits):
    text = "".join(f"{k} = {v}\n" for k, v in {**FUZZ_BASE, **edits}.items())
    try:
        cfg = parse_config(text)
    except (ParseError, ValidationError):
        return
    assert set(cfg.params) == set(suites.SUITE_PARAMS)


# CLI fuzz: tiny two-study runs with the keys that shape the initial data
# drawn from fixed token pools. Whatever the draw, main() returns 0, 1 or 2
# and no exception escapes.
CLI_FUZZ_BASE = {
    "n": "3", "D.1.2": "1.0", "D.1.3": "2.0", "D.2.3": "3.0", "cells": "8",
    "t_final": "0.0005", "suites": "identity-study twin-study",
    "identity-study.cells": "8", "identity-study.levels": "2",
    "identity-study.t_final": "0.0005", "twin-study.halvings": "2",
}
CLI_FUZZ_TOKENS = {
    "weights": ["0.2 0.3 0.5", "0.01 0.5 0.49", "0.00001 0.5 0.49999", "1 1 1",
                "0 1 1", "0.5 0.5", "abc"],
    "preset": ["sine_mix", "uniform", "binary_mode", "vortex"],
    "amplitude": ["0", "0.2", "0.9", "0.99", "1.5", "-0.1", "nan"],
    "perturb.amplitude": ["0.0001", "0.01", "0.3", "0.7", "-0.01", "0", "inf"],
    "perturb.mode": ["1", "2", "0", "-3"],
    "perturb.species": ["1 2", "2 3", "1 1", "3 4", "1"],
    "cfl": ["0.25", "0.5", "1", "1e-300", "0", "2"],
    # ladder depths and the grid: tiny valid draws, values under the lowest
    # admissible one, a non-integer, and runs over the step cap
    "twin-study.halvings": ["2", "3", "0", "1", "x", "40"],
    "identity-study.levels": ["2", "3", "0", "1", "x", "40"],
    "cells": ["8", "4", "0", "1", "x", "1000000"],
}


@settings(max_examples=100, derandomize=True, deadline=None)
@given(
    st.fixed_dictionaries(
        {},
        optional={k: st.sampled_from(v) for k, v in CLI_FUZZ_TOKENS.items()},
    )
)
# each over-cap value alone, so the step cap decides the draw
@example({"twin-study.halvings": "40"})
@example({"identity-study.levels": "40"})
@example({"cells": "1000000"})
def test_cli_fuzz_exit_codes(edits):
    text = "".join(f"{k} = {v}\n" for k, v in {**CLI_FUZZ_BASE, **edits}.items())
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.cfg")
        with open(path, "w") as fh:
            fh.write(text)
        code = main([path, "--out", os.path.join(tmp, "out")])
    assert code in (0, 1, 2)


# The README documents the scenario keys and the suite parameters in two
# tables; both must agree with the tables the parser reads.
README = Path(__file__).resolve().parent.parent / "README.md"
TYPE_NAMES = {
    "integer": int, "number": float, "name": str, "path": str,
    "integers": int, "numbers": float, "names": str,
}
PROBES = {
    int: range(-2, 6),
    float: (-1.0, 0.0, 1e-300, 0.5, 1.0, 1.5, 3.0),
    str: ("euler", "heun", "rk4", ""),
}


def readme_table(header):
    """Rows of the README table under ``header``, keyed by the bare key."""
    lines = README.read_text().splitlines()
    rows = {}
    for line in lines[lines.index(header) + 2:]:
        if not line.startswith("|"):
            break
        key, *cells = (cell.strip() for cell in line.strip("|").split("|"))
        rows[key.strip("`")] = cells
    return rows


def admits(notation, conv):
    """The predicate that a README notation (>= 2, > 0, (0, 1], a, b) states."""
    if notation.startswith(">="):
        low = conv(notation[2:])
        return lambda v: v >= low
    if notation.startswith(">"):
        low = conv(notation[1:])
        return lambda v: v > low
    if notation.startswith("("):
        lo, hi = (conv(x) for x in notation.strip("(]").split(","))
        return lambda v: lo < v <= hi
    allowed = {conv(x.strip()) for x in notation.split(",")}
    return lambda v: v in allowed


def test_readme_scenario_key_table_matches_the_parser():
    rows = readme_table("| key | type | default | admissible values |")
    assert set(rows) == set(config._SCALARS) | set(config._LISTS)
    for key, conv in config._LISTS.items():
        assert TYPE_NAMES[rows[key][0]] is conv, key
    for key, (conv, default, ok, _) in config._SCALARS.items():
        kind, doc_default, admissible = rows[key]
        assert TYPE_NAMES[kind] is conv, key
        if doc_default == "required":
            assert default is config._REQUIRED, key
        else:
            assert default == (None if doc_default == "unset" else conv(doc_default)), key
        # a checked key leads with its range in backticks; an unchecked one
        # is described in words
        assert admissible.startswith("`") == (ok is not None), key
        if ok is not None:
            doc = admits(admissible.split("`")[1], conv)
            assert [ok(v) for v in PROBES[conv]] == [doc(v) for v in PROBES[conv]], key


def test_readme_suite_parameter_table_matches_the_suites():
    rows = readme_table("| key | type | default | lowest value | highest value |")
    assert set(rows) == set(suites.SUITE_PARAMS)
    for key, (conv, default, low, high) in suites.SUITE_PARAMS.items():
        kind, doc_default, doc_low, doc_high = rows[key]
        assert TYPE_NAMES[kind] is conv, key
        assert (conv(doc_default), conv(doc_low.split()[0])) == (default, low), key
        assert doc_low.endswith("(exclusive)") == (conv is float), key
        assert (None if doc_high == "none" else int(doc_high)) == high, key
