"""Acceptance gate: twelve certification criteria with pinned tolerances.

Each test prints exactly one line ``[criterion NN] PASS|FAIL name: detail``
before asserting, so the gate's outcome is readable straight off the log.
All randomness is seeded; every criterion also enforces its runtime budget.
"""

import math
import time
from dataclasses import replace

import numpy as np

from msdiff.entropy import (
    error_terms,
    gronwall_certificate,
    identity_renorm,
    identity_residual,
    log_shift_renorm,
    quadratic_log_gap,
    regularized_relative_entropy,
    square_renorm,
)
from msdiff.flux import (
    DiffusionMatrix,
    solve_fluxes_batch,
    solve_fluxes_lstsq,
    _symmetric_friction,
)
from msdiff.grid import PeriodicGrid, l2_norm
from msdiff.mollify import (
    fit_loglog,
    initial_pairing,
    initial_trace_mollification,
    mollify_spacetime,
    plain_pairing,
    rate_study,
)
from msdiff.sim import (
    Perturbation,
    Scenario,
    bump_test_function,
    exact_binary_mode,
    run,
    run_lockstep,
    weak_form_residual,
)
from msdiff.suites import _gap_sides, study_runs

D3 = DiffusionMatrix([[0.0, 1.0, 2.0], [1.0, 0.0, 3.0], [2.0, 3.0, 0.0]])


def _report(num, name, ok, detail):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"criterion {num}: {name}: {detail}"


def _budget(num, name, elapsed, budget):
    _report(num, f"{name} runtime", elapsed < budget,
            f"{elapsed:.2f}s against a {budget:.0f}s budget")


def _random_simplex(rng, m, n):
    g = -np.log(rng.uniform(size=(m, n)))
    return g / g.sum(axis=1, keepdims=True)


def _random_diffusivities(rng, n, lo=0.1, hi=10.0):
    vals = np.exp(rng.uniform(math.log(lo), math.log(hi), size=(n, n)))
    d = np.triu(vals, 1)
    return DiffusionMatrix(d + d.T)


def test_criterion_01_flux_solve():
    rng = np.random.default_rng(101)
    t0 = time.time()
    total, chunk = 10000, 100
    per_n = total // 5
    worst_res = worst_sum = worst_oracle = 0.0
    for n in range(2, 7):
        for _ in range(per_n // chunk):
            D = _random_diffusivities(rng, n)
            c = _random_simplex(rng, chunk, n)
            g = rng.normal(size=(chunk, n))
            g -= g.mean(axis=1, keepdims=True)
            J, _ = solve_fluxes_batch(c, g, D)
            K = D.inv
            residual = (c @ K) * J - c * (J @ K) + g
            worst_res = max(worst_res, float(np.abs(residual).max()))
            worst_sum = max(worst_sum, float(np.abs(J.sum(axis=1)).max()))
            ref = solve_fluxes_lstsq(c, g, D)
            worst_oracle = max(worst_oracle, float(np.abs(J - ref).max()))
    elapsed = time.time() - t0
    ok = worst_res <= 1e-10 and worst_sum <= 1e-12 and worst_oracle <= 1e-9
    _report(1, "force-flux solve", ok,
            f"residual {worst_res:.2e} <= 1e-10, zero-sum {worst_sum:.2e} <= 1e-12, "
            f"oracle gap {worst_oracle:.2e} <= 1e-9 over 10^4 samples")
    _budget(1, "force-flux solve", elapsed, 10.0)


def _stacks_by_species(draws):
    """Per-sample tuples of arrays, grouped by species count into stacks."""
    groups = {}
    for row in draws:
        groups.setdefault(len(row[0]), []).append(row)
    return {n: [np.array(col) for col in zip(*rows)] for n, rows in groups.items()}


def test_criterion_02_operator_algebra():
    rng = np.random.default_rng(102)
    t0 = time.time()
    draws = []
    for _ in range(1000):
        n = int(rng.integers(2, 6))
        c = _random_simplex(rng, 1, n)[0]
        delta = float(rng.uniform(1e-6, 0.5))
        D = _random_diffusivities(rng, n, 0.5, 2.0)
        draws.append((c + delta, D.inv))
    worst_kernel = worst_idem = worst_complete = worst_scaling = 0.0
    for n, (d, K) in _stacks_by_species(draws).items():
        s, A = _symmetric_friction(d, K)
        proj_kernel = s[:, :, None] * s[:, None, :] / d.sum(axis=1)[:, None, None]
        proj_range = np.eye(n) - proj_kernel
        kernel_action = np.einsum("kij,kj->ki", A, s)
        worst_kernel = max(worst_kernel, float(np.abs(kernel_action).max()))
        for P in (proj_range, proj_kernel):
            worst_idem = max(worst_idem, float(np.abs(P @ P - P).max()))
        worst_complete = max(
            worst_complete, float(np.abs(proj_range + proj_kernel - np.eye(n)).max())
        )
        _, doubled = _symmetric_friction(2.0 * d, K)
        worst_scaling = max(worst_scaling, float(np.abs(doubled - 2.0 * A).max()))
    elapsed = time.time() - t0
    ok = max(worst_kernel, worst_idem, worst_complete, worst_scaling) <= 1e-12
    _report(2, "operator algebra", ok,
            f"kernel action {worst_kernel:.2e}, idempotence {worst_idem:.2e}, "
            f"completeness {worst_complete:.2e}, scaling {worst_scaling:.2e}, "
            f"all <= 1e-12 over 10^3 compositions")
    _budget(2, "operator algebra", elapsed, 1.0)


def test_criterion_03_spectral_bound():
    rng = np.random.default_rng(103)
    t0 = time.time()
    draws = []
    for _ in range(10000):
        n = int(rng.integers(2, 5))
        c = _random_simplex(rng, 1, n)[0]
        delta = float(rng.uniform(0.0, 0.3))
        D = _random_diffusivities(rng, n)
        draws.append((c + delta, D.inv, D.mu, rng.normal(size=n)))
    violations = 0
    worst_margin = math.inf
    for d, K, mu, z in _stacks_by_species(draws).values():
        lhs, rhs, _, _ = _gap_sides(d, K, mu, z)
        violations += int(np.count_nonzero(~(lhs >= rhs - 1e-12)))
        worst_margin = min(worst_margin, float((lhs - rhs).min()))
    elapsed = time.time() - t0
    _report(3, "spectral coercivity", violations == 0,
            f"{violations} violations over 10^4 samples (slack 1e-12, "
            f"worst margin {worst_margin:.2e})")
    _budget(3, "spectral coercivity", elapsed, 5.0)


def test_criterion_04_binary_heat_equivalence():
    t0 = time.time()
    D = DiffusionMatrix.uniform(2, 1.0)
    errors = []
    for cells in (64, 128, 256):
        grid = PeriodicGrid((cells,))
        sc = Scenario(n=2, D=D, grid=grid, t_final=0.01, preset="binary_mode",
                      amplitude=0.25)
        traj = run(sc)
        exact = exact_binary_mode(grid, 1.0, 0.25, 1, 0.01)
        errors.append(l2_norm(traj.states[-1] - exact.c, grid)
                      / l2_norm(exact.c, grid))
    orders = [math.log2(errors[k] / errors[k + 1]) for k in range(2)]
    elapsed = time.time() - t0
    ok = min(orders) >= 1.9 and errors[-1] <= 1e-3
    _report(4, "binary/heat equivalence", ok,
            f"orders {orders[0]:.2f}, {orders[1]:.2f} >= 1.9; "
            f"finest relative L2 error {errors[-1]:.2e} <= 1e-3")
    _budget(4, "binary/heat equivalence", elapsed, 30.0)


def test_criterion_05_conservation_and_simplex():
    runs = [
        Scenario(n=3, D=D3, grid=PeriodicGrid((32,)), t_final=0.005, amplitude=0.4),
        Scenario(n=3, D=D3, grid=PeriodicGrid((16, 24)), t_final=0.001, amplitude=0.3),
    ]
    worst_mass = worst_simplex = 0.0
    for sc in runs:
        traj = run(sc)
        worst_mass = max(worst_mass, traj.species_mass_drift())
        worst_simplex = max(worst_simplex, traj.simplex_defect())
    ok = worst_mass <= 1e-12 and worst_simplex <= 1e-12
    _report(5, "conservation and simplex", ok,
            f"mass drift {worst_mass:.2e} <= 1e-12, "
            f"simplex defect {worst_simplex:.2e} <= 1e-12 across 1-D and 2-D runs")


def test_criterion_06_entropy_decay():
    t0 = time.time()
    increments = []
    for grid in (PeriodicGrid((64,)), PeriodicGrid((64, 64))):
        sc = Scenario(n=3, D=D3, grid=grid, t_final=0.001, amplitude=0.4)
        traj = run(sc)
        increments.append(float(np.diff(traj.entropy_series).max()))
    elapsed = time.time() - t0
    ok = max(increments) <= 1e-10
    _report(6, "entropy decay", ok,
            f"largest per-step increment {max(increments):.2e} <= 1e-10 "
            f"on 1-D and 2-D 64^2 scenarios")
    _budget(6, "entropy decay", elapsed, 120.0)


def test_criterion_07_identity_residual_refinement():
    t0 = time.time()
    base = Scenario(n=3, D=D3, grid=PeriodicGrid((16,)), t_final=0.001,
                    delta=0.05, cadence=1, amplitude=0.2, dt=0.001 / 8)
    pert = Perturbation(amplitude=0.02, mode=2)
    residuals = []
    for k in range(3):
        sc = base.refine(2**k)
        pair = run_lockstep([sc, replace(sc, perturbation=pert)])
        residuals.append(identity_residual(*pair, sc.D).residual)
    orders = [math.log2(residuals[k] / residuals[k + 1]) for k in range(2)]
    elapsed = time.time() - t0
    ok = min(orders) >= 1.0
    _report(7, "entropy-identity residual", ok,
            f"residuals {residuals[0]:.2e} -> {residuals[2]:.2e}, "
            f"orders {orders[0]:.2f}, {orders[1]:.2f} >= 1 over three levels")
    _budget(7, "entropy-identity residual", elapsed, 180.0)


def test_criterion_08_error_term_bounds():
    rng = np.random.default_rng(108)
    grid = PeriodicGrid((10,))
    violations = 0
    for _ in range(1000):
        n = int(rng.integers(2, 5))
        D = _random_diffusivities(rng, n, 0.5, 2.0)
        delta = float(rng.uniform(0.02, 0.3))
        d = _random_simplex(rng, 10, n).T + delta
        dbar = _random_simplex(rng, 10, n).T + delta
        v = rng.normal(size=(n, 1, 10))
        vbar = rng.normal(size=(n, 1, 10))
        v -= (d[:, None] * v).sum(axis=0) / d.sum(axis=0)
        vbar -= (dbar[:, None] * vbar).sum(axis=0) / dbar.sum(axis=0)
        terms = error_terms(d, dbar, v, vbar, D, delta, grid)
        if not terms.respects_bounds(slack=1e-12):
            violations += 1
        if terms.q_shifted < terms.q_lower_bound - 1e-12 * max(
            1.0, abs(terms.q_lower_bound)
        ):
            violations += 1
    _report(8, "cross-term bounds", violations == 0,
            f"{violations} violations of the cross-term and dissipation "
            f"bounds over 10^3 field pairs (slack 1e-12)")


def test_criterion_09_quadratic_log_domination():
    rng = np.random.default_rng(109)
    t0 = time.time()
    d = rng.uniform(0.01, 2.0, size=1000000)
    dbar = rng.uniform(0.01, 2.0, size=1000000)
    gap = quadratic_log_gap(d, dbar)
    violations = int((gap < 0.0).sum())
    elapsed = time.time() - t0
    idx = int(np.argmin(gap))
    _report(9, "quadratic-log domination", violations == 0,
            f"{violations} violations over a 10^6-point sweep of [0.01, 2]^2; "
            f"worst pair d={d[idx]:.4f}, dbar={dbar[idx]:.4f}, gap {gap[idx]:.2e} "
            f"(pairs with logarithmic mean above one break the unweighted bound)")
    _budget(9, "quadratic-log domination", elapsed, 1.0)


def test_criterion_10_twin_stability():
    t0 = time.time()
    sc = Scenario(n=3, D=D3, grid=PeriodicGrid((24,)), t_final=0.002,
                  delta=0.05, amplitude=0.2)
    # identical data, halved steps: the twin-study ladder at 8, 16, 32 and
    # 64 steps, whose regularized gap between neighbours closes with dt
    [group] = study_runs("twin-study", replace(sc, dt=sc.t_final / 8),
                         {"twin-study.halvings": 3})
    ladder = run_lockstep(group[:-1])  # the rungs, without the plan's twin
    finals = [traj.state(-1) for traj in ladder]
    gaps = [regularized_relative_entropy(a, b, sc.delta) for a, b in zip(finals, finals[1:])]
    dts = [rung.dt for rung in group[:-2]]
    slope, _ = fit_loglog(dts, gaps)
    # perturbed twin at the same shift stays inside the certified envelope
    base = replace(sc, dt=sc.t_final / 16, cadence=2)
    twin = replace(base, perturbation=Perturbation(amplitude=1e-3, mode=1))
    cert = gronwall_certificate(*run_lockstep([base, twin]), sc.D, sc.delta)
    elapsed = time.time() - t0
    ok = slope >= 0.9 and cert.holds_master and cert.holds_envelope
    _report(10, "twin stability", ok,
            f"identical-data gap slope {slope:.2f} >= 0.9 in dt; perturbed twin "
            f"master={'ok' if cert.holds_master else 'violated'}, "
            f"envelope={'ok' if cert.holds_envelope else 'violated'} at delta=0.05, n=3")
    _budget(10, "twin stability", elapsed, 180.0)


def test_criterion_11_mollifier_limits():
    t0 = time.time()
    grid = PeriodicGrid((128,))
    t_max, t_cells = 1.0, 128
    f = lambda y, t: 1.0 + 0.3 * np.sin(2 * np.pi * y) * (1.0 + t)
    one = lambda a, b: np.ones_like(np.asarray(a, float) + np.asarray(b, float))
    ref = plain_pairing(f, one, grid, t_max, t_cells)
    study = rate_study(
        lambda e: mollify_spacetime(f, one, e, grid, t_max, t_cells),
        [0.2, 0.1, 0.05],
        ref,
    )
    ftr = lambda y, t: 1.0 + 0.3 * np.sin(2 * np.pi * y) * np.exp(-t)
    phitr = lambda x, t: 1.0 + 0.2 * np.sin(2 * np.pi * x) * (1.0 - t)
    full = initial_pairing(ftr, phitr, grid)
    trace = initial_trace_mollification(ftr, phitr, 0.05, grid, t_max, t_cells)
    elapsed = time.time() - t0
    half_ok = abs(trace - 0.5 * full) <= 0.01 * abs(0.5 * full)
    margin_ok = abs(trace - full) > 0.25 * abs(full)
    ok = study.slope >= 0.9 and half_ok and margin_ok
    _report(11, "mollifier limits", ok,
            f"fitted order {study.slope:.2f} >= 0.9 over eps in {{0.2, 0.1, 0.05}}; "
            f"initial trace {trace:.4f} within 1% of half pairing {0.5 * full:.4f} "
            f"and {abs(trace - full) / abs(full):.0%} away from the full pairing")
    _budget(11, "mollifier limits", elapsed, 60.0)


def test_criterion_12_weak_form_residual():
    t0 = time.time()
    T = 0.004
    profiles = [
        ("identity", identity_renorm()),
        ("log_shift", log_shift_renorm(0.05)),
        ("square", square_renorm()),
    ]
    residuals = {label: [] for label, _ in profiles}
    widths = []
    for k in range(3):
        cells = 16 * 2**k
        sc = Scenario(n=3, D=D3, grid=PeriodicGrid((cells,)), t_final=T,
                      amplitude=0.3, dt=T / (32 * 4**k), cadence=2**k)
        traj = run(sc)
        phi = bump_test_function(traj.grid, -T, 0.0035)
        widths.append(1.0 / cells)
        for label, beta in profiles:
            residuals[label].append(weak_form_residual(traj, beta, phi))
    worst = math.inf
    for label, _ in profiles:
        per_species = np.array(residuals[label])
        for sp in range(per_species.shape[1]):
            slope, _ = fit_loglog(widths, per_species[:, sp])
            worst = min(worst, slope)
    elapsed = time.time() - t0
    ok = worst >= 1.0
    _report(12, "weak-form residual", ok,
            f"slowest observed order {worst:.2f} >= 1 across identity, "
            f"log-shift, and square profiles")
    _budget(12, "weak-form residual", elapsed, 120.0)
