"""Mesh-study ladders: how many runs each study makes, and what it reuses."""

import importlib
from dataclasses import replace

import numpy as np
import pytest

from msdiff import sim, suites
from msdiff.config import parse_config
from msdiff.entropy import regularized_relative_entropy

STUDY = """
n = 3
D.1.2 = 1.0
D.1.3 = 2.0
D.2.3 = 3.0
cells = 16
t_final = 0.001
identity-study.levels = 2
identity-study.cells = 8
"""


def study_config(tmp_path, extra=""):
    cfg = parse_config(STUDY + extra)
    return replace(cfg, out_dir=str(tmp_path))


def counting_run(monkeypatch):
    calls = []
    real = sim.run

    def counted(scenario):
        calls.append(scenario)
        return real(scenario)

    monkeypatch.setattr(sim, "run", counted)
    return calls


@pytest.mark.parametrize("halvings", [2, 3])
def test_twin_study_runs_each_rung_once(tmp_path, monkeypatch, halvings):
    cfg = study_config(tmp_path, f"twin-study.halvings = {halvings}\n")
    calls = counting_run(monkeypatch)
    result = suites.twin_study(cfg, np.random.default_rng(0))
    # halvings + 1 ladder rungs, rung 0 doubling as the certificate's base,
    # then the perturbed twin
    assert len(calls) == halvings + 2
    assert len(result.details["f_gaps"]) == halvings


def test_twin_ladder_gaps_equal_half_step_twins(tmp_path):
    cfg = study_config(tmp_path, "twin-study.halvings = 2\n")
    details = suites.twin_study(cfg, np.random.default_rng(0)).details
    sc = cfg.scenario
    _, steps0 = sc.resolve_steps()
    for k, dt in enumerate(details["dt_values"]):
        steps = steps0 * 2**k
        assert dt == sc.t_final / steps
        paired = sim.twin_experiment(
            replace(sc, dt=dt, cadence=steps, perturbation=None), dt_divisor=2
        )
        gap = regularized_relative_entropy(
            paired.base.state(-1), paired.twin.state(-1), sc.delta
        )
        assert gap == details["f_gaps"][k]


def test_identity_study_certifies_nothing(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("identity-study computed a Gronwall certificate")

    # the package exports a function named entropy, so fetch the module
    entropy_module = importlib.import_module("msdiff.entropy")
    monkeypatch.setattr(entropy_module, "gronwall_certificate", refuse)
    calls = counting_run(monkeypatch)
    result = suites.identity_study(study_config(tmp_path), np.random.default_rng(0))
    assert len(result.details["residuals"]) == 2
    assert len(calls) == 4  # a base and a perturbed run per level


def test_identity_levels_take_their_step_from_resolve_steps(tmp_path):
    cfg = study_config(tmp_path, "cfl = 0.1\ndt = 0.0001\n")
    pairs = suites.study_runs("identity-study", cfg.scenario, cfg.params)
    (base0, twin0), (base1, _) = pairs
    # the config's cfl and dt are not used: level 0 resolves at cfl 0.25
    auto = replace(base0, dt=None)
    assert auto.cfl == 0.25 and base0.dt == auto.resolve_steps()[0]
    assert base1.dt == base0.dt / 4 and base1.grid.cells == (16,)
    assert base0.perturbation is None and twin0.perturbation.amplitude == 0.02


def test_twin_study_perturbs_with_the_configured_perturbation(tmp_path):
    default = study_config(tmp_path)
    [(base, twin)] = suites.study_runs("twin-study", default.scenario, default.params)
    assert base.perturbation is None and twin.perturbation.amplitude == 1e-4
    cfg = study_config(tmp_path, "perturb.amplitude = 0.001\n")
    [(_, twin)] = suites.study_runs("twin-study", cfg.scenario, cfg.params)
    assert twin.perturbation == cfg.scenario.perturbation
    assert suites.study_runs("flux-certify", cfg.scenario, cfg.params) == []


@pytest.mark.parametrize("samples", [20, 400])
def test_flux_certify_keeps_its_draws_for_multiples_of_twenty(tmp_path, samples):
    cfg = study_config(tmp_path, f"flux-certify.samples = {samples}\n")
    got = suites.flux_certify(cfg, np.random.default_rng([5, 0])).details
    # reference: samples / 20 points in each of 4 chunks per species count
    rng = np.random.default_rng([5, 0])
    worst = 0.0
    for n in range(2, 7):
        for _ in range(4):
            m = samples // 20
            D = suites._random_diffusivities(rng, n)
            c = suites._random_simplex(rng, m, n)
            g = suites._zero_sum_gradients(rng, m, n)
            worst = max(worst, suites.solve_fluxes_batch(c, g, D)[1])
    assert got["max_residual"] == worst
    assert got["samples"] == samples and got["species"] == [2, 3, 4, 5, 6]
