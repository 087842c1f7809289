"""Certification suites behind the command line: randomized certification
of the pointwise solver and operator algebra, and mesh studies for the
entropy identity, mollification limits, twin stability, and binary
convergence. Every suite writes machine-readable artifacts whose bytes
depend only on the configuration and seed.
"""

from __future__ import annotations

import copy
import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import mollify, sim
from .entropy import (
    CSV_COLUMNS,
    gronwall_certificate,
    identity_series,
    regularized_relative_entropy,
)
from .flux import (
    DiffusionMatrix,
    _blocks,
    solve_fluxes_batch,
    solve_fluxes_lstsq,
    _shift_correction,
    _symmetric_friction,
)
from .grid import PeriodicGrid, l2_norm


@dataclass
class SuiteResult:
    name: str
    passed: bool
    checks: list
    artifacts: list = field(default_factory=list)
    details: dict = field(default_factory=dict)


def _check(name, operation, value, threshold, kind="<="):
    ok = value <= threshold if kind == "<=" else value >= threshold
    return {
        "check": name,
        "operation": operation,
        "value": float(value),
        "threshold": float(threshold),
        "comparison": kind,
        "passed": bool(ok),
    }


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _random_simplex(rng, m, n):
    """m points uniform on the simplex of n species, -log u / sum(-log u),
    as an (m, n) view of C-ordered (n, m) species rows. The draws are made
    point by point, and normalised along the rows' species axis; for
    n <= 7 (every caller uses n <= 6) numpy sums that axis in the same
    sequential order as a point's own n values, so the result is
    bit-equal to the point-major formula."""
    rows = np.negative(np.log(rng.uniform(size=(m, n))).T, out=np.empty((n, m)))
    rows /= rows.sum(axis=0)
    return rows.T


def _diffusivity_draws(rng, n, k):
    """k symmetric (n, n) diffusivity matrices, log-uniform in [0.1, 10]
    off the diagonal and zero on it, drawn one (n, n) block at a time."""
    vals = np.exp(rng.uniform(math.log(0.1), math.log(10.0), size=(k, n, n)))
    d = np.triu(vals, 1)
    return d + np.swapaxes(d, 1, 2)


def _random_diffusivities(rng, n):
    return DiffusionMatrix(_diffusivity_draws(rng, n, 1)[0])


def _operator_draws(rng, n, k):
    """k random operators of n species: the reciprocal diffusivities K as a
    (k, n, n) stack with their off-diagonal minima mu, shifts delta and
    compositions c, drawn in that order from rng, or each from its own of
    three generators (see _operator_pieces)."""
    d_rng, delta_rng, c_rng = rng if isinstance(rng, tuple) else (rng,) * 3
    d = _diffusivity_draws(d_rng, n, k)
    off = ~np.eye(n, dtype=bool)
    K = np.where(off, 1.0 / np.where(off, d, 1.0), 0.0)
    delta = delta_rng.uniform(0.01, 0.5, size=k)
    return K, K[:, off].min(axis=1), delta, _random_simplex(c_rng, k, n)


def _operator_pieces(rng, n, k):
    """_operator_draws(rng, n, k) in the kernel's blocks (flux._blocks): the
    same values, and rng where that call leaves it, with no draw longer
    than a block; none for k = 0."""
    runs = tuple(_uniform_runs(rng, k * n * n, k, k * n))
    for sl in _blocks(k, n) if k else []:
        yield _operator_draws(runs, n, sl.stop - sl.start)


def _uniform_runs(rng, *counts):
    """Generators at the starts of consecutive runs of counts uniforms in
    rng's stream, and rng moved past them all: a uniform takes one output
    of the bit generator, so each run can be drawn in pieces while rng
    draws on after the last."""
    starts = []
    for count in counts:
        starts.append(copy.deepcopy(rng))
        rng.bit_generator.advance(count)
    return starts


def _zero_sum_gradients(rng, m, n):
    """m normal gradients of n species projected onto sum 0, g - mean(g),
    as an (m, n) view of C-ordered (n, m) species rows; bit-equal to the
    point-major formula for n <= 7, as in _random_simplex."""
    rows = np.ascontiguousarray(rng.normal(size=(m, n)).T)
    rows -= rows.mean(axis=0)
    return rows.T


def _shares(total, parts):
    """total split into parts counts, the earlier parts taking the remainder."""
    return [total // parts + (i < total % parts) for i in range(parts)]


def flux_certify(cfg, rng):
    """Randomized certification of the pointwise force-flux solve."""
    suite = "flux-certify"
    samples = cfg.params["flux-certify.samples"]

    # exactly `samples` points over 5 species counts, then up to 4 non-empty
    # chunks each, drawn and checked in the kernel's blocks (flux._blocks):
    # the compositions from their own run of the stream, the gradients from
    # rng after it, so every value is the one a chunk-wide draw gives
    max_res = max_zero = max_oracle = 0.0
    total, species = 0, []
    for n, per_n in zip(range(2, 7), _shares(samples, 5)):
        species += [n] if per_n else []
        for m in filter(None, _shares(per_n, 4)):
            total += m
            D = _random_diffusivities(rng, n)
            [c_rng] = _uniform_runs(rng, m * n)
            for sl in _blocks(m, n):
                k = sl.stop - sl.start
                # (k, n) views of (n, k) rows: the kernel and the oracle copy neither
                c = _random_simplex(c_rng, k, n)
                g = _zero_sum_gradients(rng, k, n)
                j, res = solve_fluxes_batch(c, g, D)
                max_res = max(max_res, res)
                max_zero = max(max_zero, float(np.abs(j.sum(axis=1)).max()))
                j_or = solve_fluxes_lstsq(c, g, D)
                max_oracle = max(max_oracle, float(np.abs(j - j_or).max()))

    checks = [
        _check("force_flux_residual", "flux.solve_fluxes_batch", max_res, 1e-10),
        _check("flux_zero_sum", "flux.solve_fluxes_batch", max_zero, 1e-12),
        _check("oracle_agreement", "flux.solve_fluxes_batch", max_oracle, 1e-9),
    ]
    details = {
        "samples": total,
        "species": species,
        "max_residual": max_res,
        "max_zero_sum": max_zero,
        "max_oracle_gap": max_oracle,
    }
    return SuiteResult(suite, all(c["passed"] for c in checks), checks, details=details)


def _gap_sides(d, K, mu, z):
    """Both sides of the coercivity bound z'Az >= |d| mu |Pz|^2 over a stack
    of shifted compositions d, with P the projector off the kernel s, and
    the exact form of the bound: the second eigenvalue of A and |d| mu.
    Returns (lhs, rhs, lambda_2, |d| mu), each of shape (k,)."""
    s, A = _symmetric_friction(d, K)
    mass = d.sum(axis=1)
    lhs = np.einsum("ki,kij,kj->k", z, A, z)
    pz = z - s * (np.einsum("ki,ki->k", s, z) / mass)[:, None]
    floor = mass * mu
    rhs = floor * np.einsum("ki,ki->k", pz, pz)
    return lhs, rhs, np.linalg.eigvalsh(A)[:, 1], floor


def spectral_certify(cfg, rng):
    """Operator algebra identities plus the coercivity bound, randomized.

    Draws are batched per species count, in ascending order, and checked on
    (k, n, n) stacks of the symmetric friction, one kernel block
    (flux._blocks) at a time: the bound on a random z per sample, and
    exactly on each operator's second eigenvalue.
    """
    suite = "spectral-certify"
    samples = cfg.params["spectral-certify.samples"]
    op_samples = cfg.params["spectral-certify.operator_samples"]

    worst = {}

    def note(key, defect):
        worst[key] = max(worst.get(key, 0.0), float(np.abs(defect).max()))

    # each defect is reduced as it is formed, so no piece holds them all
    for n, k in zip(range(2, 7), _shares(op_samples, 5)):
        for K, _, delta, c in _operator_pieces(rng, n, k):
            d = c + delta[:, None]
            s, A = _symmetric_friction(d, K)
            lam = d.sum(axis=1)
            # the friction part kills s on the right, the full matrix on the left
            note("kernel_action", np.einsum("kij,kj->ki", A, s))
            note("left_annihilation", np.einsum("ki,kij->kj", s, A + delta[:, None, None] * _shift_correction(s, K)))
            proj_kernel = s[:, :, None] * s[:, None, :] / lam[:, None, None]
            proj_range = np.eye(n) - proj_kernel
            note("projector_idempotence", proj_range @ proj_range - proj_range)
            note("projector_split", proj_range + proj_kernel - np.eye(n))
            # friction scales linearly when the shifted mass is rescaled
            note("scaling_identity", A - lam[:, None, None] * _symmetric_friction(d / lam[:, None], K)[1])
            # the friction M = diag(s) A diag(s)^-1 of the unshifted c, s = sqrt(c)
            s, A = _symmetric_friction(c, K)
            note("column_sums", (s[:, :, None] * A / s[:, None, :]).sum(axis=1))

    violations = exact_violations = 0
    worst_slack = -math.inf
    tightness = {}
    for n, k in zip(range(2, 5), _shares(samples, 3)):
        for K, mu, delta, c in _operator_pieces(rng, n, k):
            z = rng.normal(size=c.shape)
            lhs, rhs, lam2, floor = _gap_sides(c + delta[:, None], K, mu, z)
            violations += int(np.count_nonzero(~(lhs >= rhs - 1e-12)))
            exact_violations += int(np.count_nonzero(~(lam2 >= floor - 1e-12)))
            worst_slack = max(worst_slack, float((rhs - lhs).max()))
            tight = tightness.get(str(n), math.inf)
            tightness[str(n)] = min(tight, float((lam2 / floor).min()))

    checks = [
        _check(f"operator_{key}", "flux._symmetric_friction", val, 1e-12)
        for key, val in worst.items()
    ]
    checks += [
        _check("spectral_gap_violations", "suites._gap_sides", violations, 0),
        _check("spectral_gap_exact_violations", "suites._gap_sides", exact_violations, 0),
    ]
    details = {
        "operator_samples": op_samples,
        "gap_samples": samples,
        "worst_defects": worst,
        "gap_violations": violations,
        "gap_exact_violations": exact_violations,
        "gap_tightness": tightness,
        "worst_gap_slack": worst_slack,
    }
    return SuiteResult(suite, all(c["passed"] for c in checks), checks, details=details)


def study_runs(name, scenario, params):
    """Every run that suite ``name`` makes, as groups of scenarios that step
    together; [] for a suite that makes none.

    identity-study: one [base, perturbed] Euler pair per level, coarse
    first, each level halving h and quartering dt, with the level-0 step
    taken at cfl 0.25. twin-study: one group, [rung 0 at dt0, rungs 1 to
    halvings at dt0 / 2^k with one snapshot at the final time, the twin at
    dt0], the twin perturbed as configured or by a default wave; rung 0
    keeps the configured cadence and is the certificate's base.
    convergence-study: one single-run group per level, recording only the
    initial and final states. The finest run of a ladder is held to the
    step cap here, so a ladder over the cap raises RunOverCap naming the
    key that sets its depth before any of its runs starts; so does an
    identity-study level 0 over the cap, naming its cells and t_final.
    """
    if name == "identity-study":
        key = "identity-study.levels"
        level0 = replace(
            scenario,
            grid=PeriodicGrid((params["identity-study.cells"],)),
            t_final=params["identity-study.t_final"],
            dt=None,
            cfl=0.25,
            cadence=1,
            scheme="euler",
            perturbation=None,
        )
        dt0 = _hold("level-0", ["identity-study.cells", "identity-study.t_final"], level0)
        ladder = [replace(level0, dt=dt0).refine(2**lvl) for lvl in range(params[key])]
        _hold("finest", [key], ladder[-1])
        pert = sim.Perturbation(amplitude=0.02, mode=2)
        return [[sc, replace(sc, perturbation=pert)] for sc in ladder]
    if name == "twin-study":
        key = "twin-study.halvings"
        dt0, steps0 = scenario.resolve_steps()
        base = replace(scenario, dt=dt0, perturbation=None)
        rungs = [
            replace(base, dt=base.t_final / s, cadence=s)
            for s in (steps0 * 2**k for k in range(1, params[key] + 1))
        ]
        _hold("finest", [key], rungs[-1])
        pert = scenario.perturbation or sim.Perturbation(amplitude=1e-4, mode=1)
        return [[base, *rungs, replace(base, perturbation=pert)]]
    if name == "convergence-study":
        key = "convergence-study.levels"
        ladder = [
            _convergence_scenario(params["convergence-study.cells"] * 2**lvl)
            for lvl in range(params[key])
        ]
        _hold("finest", [key], ladder[-1])
        return [[replace(sc, cadence=sc.resolve_steps()[1])] for sc in ladder]
    return []


class RunOverCap(ValueError):
    """A planned run over the step cap: ``which`` run, the suite ``keys``
    that set it, and the cap's ``reason``."""

    def __init__(self, which, keys, reason):
        super().__init__(f"the {which} run of {', '.join(keys)}: {reason}")
        self.which, self.keys, self.reason = which, keys, reason


def _hold(which, keys, sc):
    """Resolve the steps of one run and return its dt; a run over the step
    cap raises RunOverCap naming it and the keys that set it."""
    try:
        return sc.resolve_steps()[0]
    except ValueError as exc:
        raise RunOverCap(which, keys, str(exc)) from None


def _identity_level(args):
    level, (base, twin) = args
    residuals = identity_series(*sim.run_lockstep([base, twin])).residuals()
    return level, min(base.grid.spacing), float(residuals[-1])


def identity_study(cfg, rng):
    """Entropy-balance residual under dyadic space-time refinement."""
    suite = "identity-study"
    pairs = study_runs(suite, cfg.scenario, cfg.params)
    rows = _map_jobs(_identity_level, list(enumerate(pairs)), cfg.workers)
    art = os.path.join(cfg.out_dir, "identity_study.csv")
    residuals, orders = _order_table(art, ["level", "h", "residual"], rows)
    slope, _ = mollify.fit_loglog([h for _, h, _ in rows], residuals)

    checks = [
        _check(
            "identity_refinement_order", "entropy.identity_series",
            float(np.min(orders)), 1.0, ">=",
        )
    ]
    details = {
        "residuals": residuals,
        "orders": orders,
        "fitted_slope": slope,
        "levels": len(pairs),
    }
    return SuiteResult(suite, all(c["passed"] for c in checks), checks, [art], details)


def mollifier_study(cfg, rng):
    """Space-time mollification limits and the initial-trace half factor."""
    suite = "mollifier-study"
    cells, t_cells, trace_cells, eps_trace = 64, 64, 256, 0.05

    grid = PeriodicGrid((cells,))
    f = lambda x, t: (0.8 + 0.3 * np.cos(2 * np.pi * x)) * (1.0 + 0.25 * t)
    phi = lambda x, t: (1.0 + 0.5 * np.sin(2 * np.pi * x)) * np.cos(0.5 * np.pi * t) ** 2
    ref = mollify.plain_pairing(f, phi, grid, 1.0, t_cells)
    art1 = os.path.join(cfg.out_dir, "mollifier_study.csv")
    study = mollify.rate_study(
        lambda e: mollify.mollify_spacetime(f, phi, e, grid, 1.0, t_cells),
        [0.2, 0.1, 0.05],
        ref,
        csv_path=art1,
    )

    tgrid = PeriodicGrid((trace_cells,))
    trace = mollify.initial_trace_mollification(
        f, phi, eps_trace, tgrid, 1.0, trace_cells
    )
    half_ref = 0.5 * mollify.initial_pairing(f, phi, tgrid)
    rel_half = abs(trace - half_ref) / abs(half_ref)
    rel_full = abs(trace - 2.0 * half_ref) / abs(2.0 * half_ref)

    checks = [
        _check("mollify_rate", "mollify.mollify_spacetime", study.slope, 0.9, ">="),
        _check("mollify_fit_r2", "mollify.mollify_spacetime", study.r2, 0.99, ">="),
        _check("trace_half_factor", "mollify.initial_trace_mollification", rel_half, 0.01),
        _check("trace_excludes_full", "mollify.initial_trace_mollification", rel_full, 0.25, ">="),
    ]
    details = {
        "rate_slope": study.slope,
        "rate_r2": study.r2,
        "trace_value": trace,
        "half_reference": half_ref,
        "relative_gap_half": rel_half,
        "relative_gap_full": rel_full,
    }
    return SuiteResult(
        suite, all(c["passed"] for c in checks), checks, [art1], details
    )


def twin_study(cfg, rng):
    """Twin stability: dt-refinement distance decay plus the certificate."""
    suite = "twin-study"
    scenario = cfg.scenario
    delta = scenario.delta

    # a ladder of runs from the same data at dt0 / 2^k: run k+1 is the
    # half-step twin of run k, and the gap between their final states must
    # shrink at least first order in dt under dt halving. Rung 0 is also
    # the certificate's base run. The rungs and the perturbed twin step
    # together, one face solve per stage.
    [group] = study_runs(suite, scenario, cfg.params)
    base, *rungs, twin = sim.run_lockstep(group)
    finals = [traj.state(-1) for traj in [base, *rungs]]
    dts = [sc.dt for sc in group[:-2]]
    f_gaps = [
        regularized_relative_entropy(a, b, delta) for a, b in zip(finals, finals[1:])
    ]
    slope, _ = mollify.fit_loglog(dts, [max(g, 1e-300) for g in f_gaps])

    cert = gronwall_certificate(base, twin, delta)
    cols = cert.diagnostics
    art_csv = os.path.join(cfg.out_dir, "twin_diagnostics.csv")
    with open(art_csv, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        writer.writerows(zip(*([repr(v) for v in cols[key].tolist()] for key in CSV_COLUMNS)))

    checks = [
        _check("dt_refinement_order", "entropy.regularized_relative_entropy", slope, 0.9, ">="),
        _check("master_inequality", "entropy.gronwall_certificate", 0.0 if cert.holds_master else 1.0, 0),
        _check("exponential_envelope", "entropy.gronwall_certificate", 0.0 if cert.holds_envelope else 1.0, 0),
    ]
    art_json = os.path.join(cfg.out_dir, "twin_study.json")
    details = {
        "dt_values": dts,
        "f_gaps": f_gaps,
        "dt_order_slope": slope,
        "delta": delta,
        "delta_admissible": bool(cert.constants.admissible),
        "delta_max": cert.constants.delta_max,
        "flux_bound": cert.constants.flux_bound,
        "constants": {
            k: getattr(cert.constants, k)
            for k in ("mu", "big_m", "c1", "c2", "c3", "c4", "c5")
        },
    }
    _write_json(art_json, details)
    passed = all(c["passed"] for c in checks)
    return SuiteResult(suite, passed, checks, [art_csv, art_json], details)


def _convergence_scenario(cells):
    """The single-mode binary run of one convergence level; D_12 = 1."""
    return sim.Scenario(n=2, D=DiffusionMatrix.uniform(2, 1.0), grid=PeriodicGrid((cells,)),
                        t_final=0.01, preset="binary_mode", amplitude=0.2, mode=1, cfl=0.25)


def _convergence_level(sc):
    traj = sim.run(sc)
    exact = sim.exact_binary_mode(sc.grid, 1.0, sc.amplitude, sc.mode, sc.t_final)
    err = l2_norm(traj.states[-1] - exact.c, sc.grid) / l2_norm(exact.c, sc.grid)
    return sc.grid.cells[0], sc.grid.spacing[0], err


def convergence_study(cfg, rng):
    """Two-species single-mode decay against the closed-form solution."""
    suite = "convergence-study"
    levels = [sc for [sc] in study_runs(suite, cfg.scenario, cfg.params)]
    rows = _map_jobs(_convergence_level, levels, cfg.workers)
    art = os.path.join(cfg.out_dir, "convergence_study.csv")
    errs, orders = _order_table(art, ["cells", "h", "rel_l2_error"], rows)
    checks = [
        _check("binary_convergence_order", "sim.run", float(np.min(orders)), 1.9, ">="),
        _check("binary_finest_error", "sim.run", errs[-1], 1e-3),
    ]
    details = {"errors": errs, "orders": orders}
    return SuiteResult(suite, all(c["passed"] for c in checks), checks, [art], details)


def _order_table(path, columns, rows):
    """Write rows (label, h, value), coarse first, with log2 orders between
    neighbours to a CSV; returns (values, orders)."""
    values = [v for _, _, v in rows]
    orders = [_order(a, b) for a, b in zip(values, values[1:])]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns + ["observed_order"])
        for k, (label, h, v) in enumerate(rows):
            writer.writerow(
                [label, repr(h), repr(v), "" if k == 0 else repr(orders[k - 1])]
            )
    return values, orders


def _order(coarse, fine):
    """log2(coarse / fine); inf when only the finer value is 0, nan when
    both are, so an order check against it fails rather than raises."""
    if fine == 0.0:
        return math.nan if coarse == 0.0 else math.inf
    return math.log2(coarse / fine) if coarse != 0.0 else -math.inf


def _map_jobs(fn, jobs, workers):
    if workers <= 1 or len(jobs) <= 1:
        return [fn(j) for j in jobs]
    # imported here: the process machinery costs every import of msdiff
    # about 18 ms, and only a run with workers > 1 needs it
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
        return list(pool.map(fn, jobs))


_SUITES = {
    "flux-certify": flux_certify,
    "spectral-certify": spectral_certify,
    "identity-study": identity_study,
    "mollifier-study": mollifier_study,
    "twin-study": twin_study,
    "convergence-study": convergence_study,
}

# The sample counts' caps are _SAMPLE_MEMORY over the traced bytes per
# sample of the suites when they drew each chunk whole: 13.6 B per
# flux-certify sample, 189 per spectral-certify gap sample and 906 per
# operator sample, rounded up to 16, 200 and 1,000 B. Their memory no
# longer grows with a count; the caps stay, so every config accepted
# before still is, and bound only a suite's work.
_SAMPLE_MEMORY = 2**30

# The settable suite parameters: "<suite>.<key>" -> (type, default, lowest
# admissible value, highest or None). An integer may equal its lowest
# value, a number must exceed it. A sample count may be at most its cap
# (see _SAMPLE_MEMORY), and a larger one is refused as a configuration
# error. The config layer converts and checks every given key against
# this table before any suite runs, so suites read typed values only.
SUITE_PARAMS = {
    "flux-certify.samples": (int, 10000, 1, _SAMPLE_MEMORY // 16),
    "spectral-certify.samples": (int, 10000, 1, _SAMPLE_MEMORY // 200),
    "spectral-certify.operator_samples": (int, 1000, 1, _SAMPLE_MEMORY // 1000),
    "identity-study.levels": (int, 3, 2, None),
    "identity-study.cells": (int, 32, 2, None),
    "identity-study.t_final": (float, 0.002, 0.0, None),
    "twin-study.halvings": (int, 3, 2, None),
    "convergence-study.levels": (int, 3, 2, None),
    "convergence-study.cells": (int, 64, 2, None),
}


def execute(cfg, log=print):
    """Run the selected suites, write artifacts, return the exit code."""
    if not cfg.suites:
        log("warning: no suites selected; nothing to do")
        return 0
    os.makedirs(cfg.out_dir, exist_ok=True)
    for w in cfg.warnings:
        log(f"warning: {w}")

    summary = {"seed": cfg.seed, "warnings": list(cfg.warnings), "suites": {}}
    all_passed = True
    artifacts = []
    for idx, name in enumerate(cfg.suites):
        rng = np.random.default_rng([cfg.seed, idx])
        result = _SUITES[name](cfg, rng)
        all_passed &= result.passed
        artifacts.extend(result.artifacts)
        summary["suites"][name] = {
            "passed": result.passed,
            "checks": _jsonable(result.checks),
            "details": _jsonable(result.details),
            "artifacts": [os.path.basename(a) for a in result.artifacts],
        }
        for c in result.checks:
            log(
                f"[{name}] {'PASS' if c['passed'] else 'FAIL'} {c['check']}: "
                f"{c['value']:.6g} {c['comparison']} {c['threshold']:.6g} "
                f"({c['operation']})"
            )
    summary["exit_code"] = 0 if all_passed else 1

    sum_path = os.path.join(cfg.out_dir, "summary.json")
    _write_json(sum_path, summary)
    artifacts.append(sum_path)

    manifest = {"files": []}
    for path in sorted(set(artifacts)):
        with open(path, "rb") as fh:
            blob = fh.read()
        manifest["files"].append(
            {
                "name": os.path.basename(path),
                "sha256": hashlib.sha256(blob).hexdigest(),
                "bytes": len(blob),
            }
        )
    _write_json(os.path.join(cfg.out_dir, "manifest.json"), manifest)
    log(f"summary written to {sum_path}")
    return summary["exit_code"]


def _jsonable(obj):
    """Plain JSON types; non-finite floats become "inf", "-inf" or "nan"."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return "nan" if math.isnan(obj) else ("inf" if obj > 0 else "-inf")
    return obj
