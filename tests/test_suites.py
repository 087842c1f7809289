"""Mesh-study ladders: how many runs each study makes, and what it reuses."""

import csv
import importlib
import json
import math
import sys
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from msdiff import flux, sim, suites
from msdiff.config import parse_config
from msdiff.entropy import _regularized_entropy, _symmetrized_entropy, regularized_relative_entropy
from msdiff.flux import DiffusionMatrix

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
    """Record every scenario run, alone through sim.run or as a member of a
    sim.run_lockstep call."""
    calls = []
    real_run, real_lockstep = sim.run, sim.run_lockstep

    def counted(scenario):
        calls.append(scenario)
        return real_run(scenario)

    def counted_lockstep(scenarios):
        calls.extend(scenarios)
        return real_lockstep(scenarios)

    monkeypatch.setattr(sim, "run", counted)
    monkeypatch.setattr(sim, "run_lockstep", counted_lockstep)
    return calls


def run_fields(sc):
    """A scenario's fields, with D as its diffusivities: DiffusionMatrix
    compares by identity, and each convergence level builds its own."""
    return {f.name: getattr(sc, f.name) for f in fields(sc)} | {"D": sc.D.d.tolist()}


def test_studies_run_exactly_their_plan(tmp_path, monkeypatch):
    cfg = study_config(
        tmp_path,
        "suites = identity-study twin-study convergence-study\n"
        "twin-study.halvings = 2\n"
        "convergence-study.cells = 8\nconvergence-study.levels = 2\n",
    )
    calls = counting_run(monkeypatch)
    assert suites.execute(cfg, log=lambda line: None) in (0, 1)
    plan = [
        sc
        for name in cfg.suites
        for group in suites.study_runs(name, cfg.scenario, cfg.params)
        for sc in group
    ]
    # identity pairs 2 x 2, twin ladder 3 rungs + twin, convergence 2 levels
    assert len(plan) == 10
    assert [run_fields(sc) for sc in calls] == [run_fields(sc) for sc in plan]


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
        # each rung and its half-step twin run on their own, not in lockstep
        coarse, fine = (
            sim.run(replace(sc, dt=sc.t_final / s, cadence=s, perturbation=None))
            for s in (steps, 2 * steps)
        )
        gap = regularized_relative_entropy(coarse.state(-1), fine.state(-1), sc.delta)
        assert gap == details["f_gaps"][k]


def test_twin_diagnostics_entropies_match_the_functionals(tmp_path, monkeypatch):
    # the CSV reuses the identity series and the certificate; evaluating the
    # two functionals directly at every snapshot must give the same floats
    cfg = study_config(tmp_path, "twin-study.halvings = 2\n")
    trajs = []
    real = sim.run_lockstep

    def recorded(scenarios):
        trajs.extend(real(scenarios))
        return trajs[-len(scenarios):]

    monkeypatch.setattr(sim, "run_lockstep", recorded)
    suites.twin_study(cfg, np.random.default_rng(0))
    assert len(trajs) == 4  # rung 0 (the base), two rungs, the twin
    base, twin = trajs[0], trajs[-1]
    with open(tmp_path / "twin_diagnostics.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(base.times) > 2
    for k, row in enumerate(rows):
        a, b = base.state(k), twin.state(k)
        assert float(row["symmetrized_entropy"]) == _symmetrized_entropy(a.c, b.c, a.grid)
        assert float(row["regularized_entropy"]) == _regularized_entropy(
            a.c, b.c, cfg.scenario.delta, a.grid
        )


def test_each_trajectory_pair_takes_one_entropy_pass(tmp_path, monkeypatch):
    entropy_module = importlib.import_module("msdiff.entropy")
    passes = []
    real = entropy_module._blockwise

    def counted(*args):
        passes.append(args)
        return real(*args)

    monkeypatch.setattr(entropy_module, "_blockwise", counted)
    suites.twin_study(study_config(tmp_path, "twin-study.halvings = 2\n"), np.random.default_rng(0))
    # the certificate, the identity columns and j1..j4 come from one pass
    assert len(passes) == 1
    passes.clear()
    result = suites.identity_study(study_config(tmp_path), np.random.default_rng(0))
    assert len(passes) == result.details["levels"] == 2


def test_identity_study_certifies_nothing(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("identity-study computed a Gronwall certificate")

    entropy_module = importlib.import_module("msdiff.entropy")
    monkeypatch.setattr(entropy_module, "gronwall_certificate", refuse)
    calls = counting_run(monkeypatch)
    result = suites.identity_study(study_config(tmp_path), np.random.default_rng(0))
    assert len(result.details["residuals"]) == 2
    assert len(calls) == 4  # a base and a perturbed run per level


def test_identity_levels_take_their_step_from_resolve_steps(tmp_path):
    cfg = study_config(tmp_path, "cfl = 0.1\ndt = 0.0001\n")
    groups = suites.study_runs("identity-study", cfg.scenario, cfg.params)
    # one [base, perturbed] group per level, coarse first
    [base0, twin0], [base1, twin1] = groups
    assert twin1 == replace(base1, perturbation=twin0.perturbation)
    # the config's cfl and dt are not used: level 0 resolves at cfl 0.25
    auto = replace(base0, dt=None)
    assert auto.cfl == 0.25 and base0.dt == auto.resolve_steps()[0]
    assert base1.dt == base0.dt / 4 and base1.grid.cells == (16,)
    assert base0.perturbation is None and twin0.perturbation.amplitude == 0.02


def test_twin_study_perturbs_with_the_configured_perturbation(tmp_path):
    default = study_config(tmp_path)
    # one group: rung 0, the halvings rungs, then the perturbed twin
    [[base, *rungs, twin]] = suites.study_runs("twin-study", default.scenario, default.params)
    assert len(rungs) == default.params["twin-study.halvings"]
    assert all(sc.perturbation is None for sc in rungs)
    assert base.perturbation is None and twin.perturbation.amplitude == 1e-4
    assert twin == replace(base, perturbation=twin.perturbation)
    cfg = study_config(tmp_path, "perturb.amplitude = 0.001\n")
    [[*_, twin]] = suites.study_runs("twin-study", cfg.scenario, cfg.params)
    assert twin.perturbation == cfg.scenario.perturbation
    assert suites.study_runs("flux-certify", cfg.scenario, cfg.params) == []


# 200,000 samples: chunks of 10,000 points, which split into pieces from
# four species on
@pytest.mark.parametrize("samples", [20, 400, 200_000])
def test_flux_certify_keeps_its_draws_for_multiples_of_twenty(tmp_path, samples):
    cfg = study_config(tmp_path, f"flux-certify.samples = {samples}\n")
    drawn = np.random.default_rng([5, 0])
    got = suites.flux_certify(cfg, drawn).details
    # reference: samples / 20 points in each of 4 chunks per species count
    rng = np.random.default_rng([5, 0])
    worst = zero = gap = 0.0
    for n in range(2, 7):
        for _ in range(4):
            m = samples // 20
            D = suites._random_diffusivities(rng, n)
            c = suites._random_simplex(rng, m, n)
            g = suites._zero_sum_gradients(rng, m, n)
            j, res = suites.solve_fluxes_batch(c, g, D)
            worst = max(worst, res)
            zero = max(zero, float(np.abs(j.sum(axis=1)).max()))
            gap = max(gap, float(np.abs(j - suites.solve_fluxes_lstsq(c, g, D)).max()))
    assert got["max_residual"] == worst
    assert got["max_zero_sum"] == zero and got["max_oracle_gap"] == gap
    assert got["samples"] == samples and got["species"] == [2, 3, 4, 5, 6]
    # a later suite drawing from the same generator draws the same values
    assert drawn.bit_generator.state == rng.bit_generator.state


def test_flux_certify_memory_does_not_grow_with_its_samples(tmp_path):
    # The peak is set by the largest piece, which flux._blocks keeps between
    # half its cap and the cap, so the counts are chosen to give pieces of
    # nearly one size: at 10^6 and 1.5 * 10^6 samples every chunk splits,
    # into pieces of 25,000 points at two species in both (12,500 and
    # 15,000 at three). Memory that grows with the count shows as up to 1.5x.
    peaks = []
    for samples in (1_000_000, 1_500_000):
        cfg = study_config(tmp_path, f"flux-certify.samples = {samples}\n")
        tracemalloc.start()
        try:
            suites.flux_certify(cfg, np.random.default_rng(1))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) <= 0.1 * peaks[0], peaks


@pytest.mark.parametrize("n", range(2, 7))
def test_operator_pieces_draw_what_one_call_draws(n):
    k = 2 * (flux._STACK_VALUES // (n * n)) + 3
    rng, ref = np.random.default_rng(n), np.random.default_rng(n)
    pieces = list(suites._operator_pieces(rng, n, k))
    assert len(pieces) == 3
    for got, want in zip(zip(*pieces), suites._operator_draws(ref, n, k)):
        assert np.concatenate(got).tobytes() == want.tobytes()
    assert rng.bit_generator.state == ref.bit_generator.state


def test_spectral_certify_checks_in_pieces_what_it_checks_whole(tmp_path, monkeypatch):
    # 5,000 operators of six species and 20,000 gap samples of three and
    # four species each take two or more kernel blocks
    cfg = study_config(
        tmp_path,
        "spectral-certify.samples = 60000\nspectral-certify.operator_samples = 25000\n",
    )
    rng, ref = np.random.default_rng(4), np.random.default_rng(4)
    got = suites.spectral_certify(cfg, rng)
    monkeypatch.setattr(suites, "_blocks", lambda m, n: [slice(0, m)])
    want = suites.spectral_certify(cfg, ref)
    assert got.checks == want.checks and got.details == want.details
    assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("draw", [suites._random_simplex, suites._zero_sum_gradients])
@pytest.mark.parametrize("m", [1, 7, 500])
def test_draws_are_point_views_of_species_rows(draw, m):
    x = draw(np.random.default_rng(m), m, 5)
    # a transposed view: x.T is the C-ordered (5, m) rows the kernel reads
    assert x.shape == (m, 5) and not x.flags.owndata and x.T.flags.c_contiguous


@pytest.mark.parametrize("n", range(2, 8))
@pytest.mark.parametrize("m", [1, 7, 5000])
def test_draws_equal_the_point_major_formulas(n, m):
    # the same generator calls, normalised or projected per point
    rng, ref_rng = np.random.default_rng([n, m]), np.random.default_rng([n, m])
    c = suites._random_simplex(rng, m, n)
    g = suites._zero_sum_gradients(rng, m, n)
    u = -np.log(ref_rng.uniform(size=(m, n)))
    normal = ref_rng.normal(size=(m, n))
    assert c.tobytes() == (u / u.sum(axis=1, keepdims=True)).tobytes()
    assert g.tobytes() == (normal - normal.mean(axis=1, keepdims=True)).tobytes()
    assert rng.uniform() == ref_rng.uniform()


def _dense_friction(d, K):
    """A_ij = -sqrt(d_i d_j) K_ij off the diagonal and (d K)_i on it, entry
    by entry at one shifted composition d."""
    n = len(d)
    A = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            if i == j:
                A[i, i] = sum(d[l] * K[l, i] for l in range(n))
            else:
                A[i, j] = -math.sqrt(d[i] * d[j]) * K[i, j]
    return A


@pytest.mark.parametrize("n", [2, 3, 4])
def test_batched_gap_matches_point_operators(n):
    k = 300
    K, mu, delta, c = suites._operator_draws(np.random.default_rng(70 + n), n, k)
    # the same stream again gives the diffusivities behind K
    d = suites._diffusivity_draws(np.random.default_rng(70 + n), n, k)
    z = np.random.default_rng(80 + n).normal(size=(k, n))
    lhs, rhs, lam2, floor = suites._gap_sides(c + delta[:, None], K, mu, z)
    for i in range(k):
        D = DiffusionMatrix(d[i])
        assert np.array_equal(D.inv, K[i]) and D.mu == mu[i]
        di = c[i] + delta[i]
        A = _dense_friction(di, D.inv)
        eig = np.linalg.eigvalsh(A)
        s = np.sqrt(di)
        pz = z[i] - s * (s @ z[i]) / di.sum()
        # relative to the size of the form, lambda_max |z|^2: both sides
        # cancel when z lies close to the kernel
        scale = eig[-1] * (z[i] @ z[i])
        assert abs(lhs[i] - z[i] @ A @ z[i]) <= 1e-13 * scale
        assert abs(rhs[i] - di.sum() * D.mu * (pz @ pz)) <= 1e-13 * scale
        assert abs(lam2[i] - eig[1]) <= 1e-13 * lam2[i]
        assert abs(floor[i] - di.sum() * D.mu) <= 1e-15 * floor[i]
    assert np.all(lhs >= rhs - 1e-12)
    assert np.all(lam2 >= floor - 1e-12)


def test_spectral_certify_reports_the_exact_gap(tmp_path):
    cfg = study_config(
        tmp_path,
        "spectral-certify.samples = 30\nspectral-certify.operator_samples = 7\n",
    )
    result = suites.spectral_certify(cfg, np.random.default_rng(3))
    assert result.passed
    names = [c["check"] for c in result.checks]
    assert names[-2:] == ["spectral_gap_violations", "spectral_gap_exact_violations"]
    tight = result.details["gap_tightness"]
    assert list(tight) == ["2", "3", "4"]
    # two species attain the bound: lambda_2 = K_12 |d| = |d| mu
    assert abs(tight["2"] - 1.0) < 1e-14 and min(tight.values()) > 1.0 - 1e-14


def test_order_table_survives_zero_residuals(tmp_path):
    path = tmp_path / "orders.csv"
    rows = [(0, 0.1, 4e-3), (1, 0.05, 1e-3), (2, 0.025, 0.0), (3, 0.0125, 0.0)]
    values, orders = suites._order_table(str(path), ["level", "h", "residual"], rows)
    assert values == [4e-3, 1e-3, 0.0, 0.0]
    assert orders[:2] == [2.0, math.inf] and math.isnan(orders[2])
    assert path.read_text().splitlines()[-1].endswith(",nan")


def test_zero_errors_fail_the_order_check_with_strict_json(tmp_path, monkeypatch):
    def exact(sc):
        return sc.grid.cells[0], sc.grid.spacing[0], 0.0

    monkeypatch.setattr(suites, "_convergence_level", exact)
    cfg = study_config(tmp_path, "suites = convergence-study\n")
    assert suites.execute(cfg, log=lambda line: None) == 1
    text = (tmp_path / "summary.json").read_text()

    def refuse(token):
        raise AssertionError(f"summary.json holds {token}")

    summary = json.loads(text, parse_constant=refuse)["suites"]["convergence-study"]
    order = summary["checks"][0]
    assert order["check"] == "binary_convergence_order"
    assert order["value"] == "nan" and not order["passed"]
    assert summary["details"]["orders"] == ["nan", "nan"]


@pytest.mark.parametrize("suite", sorted(suites._SUITES))
def test_check_operations_name_the_code_that_ran(tmp_path, monkeypatch, suite):
    cfg = study_config(
        tmp_path,
        "flux-certify.samples = 40\n"
        "spectral-certify.samples = 30\n"
        "spectral-certify.operator_samples = 10\n"
        "twin-study.halvings = 2\n"
        "convergence-study.cells = 8\n"
        "convergence-study.levels = 2\n",
    )
    run_suite = lambda: suites._SUITES[suite](cfg, np.random.default_rng(0))
    labels = {c["operation"] for c in run_suite().checks}
    calls = dict.fromkeys(labels, 0)
    modules = [m for name, m in sorted(sys.modules.items()) if name.startswith("msdiff.")]
    for label in labels:
        layer, name = label.split(".")
        real = getattr(importlib.import_module(f"msdiff.{layer}"), name)

        def counted(*args, _label=label, _real=real, **kwargs):
            calls[_label] += 1
            return _real(*args, **kwargs)

        # patch every module that holds the function, as the tracer does
        for module in modules:
            for key, obj in list(vars(module).items()):
                if obj is real:
                    monkeypatch.setattr(module, key, counted)
    run_suite()
    assert calls and all(calls.values()), calls
