"""The three benchmark workloads: seeded inputs, set-up, solve and checks.

``make_inputs`` runs in ``run.py`` and needs only the standard library;
``setup`` and ``solve`` run in a fresh worker interpreter that imports
msdiff. Every workload uses the same three-species mixture.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random

WORKLOADS = ("run-2d-dense", "cli-studies-1d", "cli-certify")

WHY = {
    "run-2d-dense": "128^2 Euler run with a snapshot every step: large face batches "
    "that overflow L2, so the flux kernel and the snapshot re-solve dominate",
    "cli-studies-1d": "twin, identity and convergence studies through the CLI: "
    "47k small face solves, so per-call overhead, Heun and the entropy layer dominate",
    "cli-certify": "flux, spectral and mollifier certification through the CLI: "
    "kernel against its pinv oracle and per-point operators, no time stepping",
}

PAIRS = {(1, 2): 1.0, (1, 3): 2.0, (2, 3): 3.0}

# run-2d-dense: 128^2 cells, t_final chosen so cfl 0.25 gives 99 Euler steps
DENSE = {"cells": 128, "t_final": 1.25e-4, "steps": 99}
DENSE_SMOKE = {"cells": 16, "t_final": 4e-4, "steps": 5}

STUDIES = """\
n = 3
{pairs}
cells = {cells}
t_final = {t_final}
scheme = heun
cfl = 0.25
suites = twin-study identity-study convergence-study
workers = 1
perturb.amplitude = {amplitude!r}
perturb.species = {species}
perturb.mode = {mode}
"""
STUDIES_FULL = {"cells": 128, "t_final": 0.002}
STUDIES_SMOKE = {
    "cells": 16,
    "t_final": 0.002,
    "extra": [
        "twin-study.halvings = 2",
        "identity-study.cells = 8",
        "identity-study.levels = 2",
        "identity-study.t_final = 0.0005",
        "convergence-study.cells = 8",
        "convergence-study.levels = 2",
    ],
}

CERTIFY = """\
n = 3
{pairs}
cells = 128
t_final = 0.002
suites = flux-certify spectral-certify mollifier-study
workers = 1
flux-certify.samples = {samples}
"""
CERTIFY_SAMPLES = 400000
CERTIFY_SMOKE = [
    "spectral-certify.samples = 200",
    "spectral-certify.operator_samples = 50",
]

MASS_TOL = 1e-12
SIMPLEX_TOL = 1e-12
ENTROPY_TOL = 1e-12


def _pair_lines():
    return "\n".join(f"D.{i}.{j} = {v!r}" for (i, j), v in PAIRS.items())


def make_inputs(workload, seed, smoke=False):
    """Inputs for one workload, a pure function of (workload, seed, smoke).

    Returns a JSON-able dict; CLI workloads carry their config text.
    """
    rnd = random.Random(f"{workload}:{seed}")
    if workload == "run-2d-dense":
        size = DENSE_SMOKE if smoke else DENSE
        return {
            "cells": size["cells"],
            "t_final": size["t_final"],
            "steps": size["steps"],
            "amplitude": round(rnd.uniform(0.01, 0.05), 6),
            "species": rnd.sample([0, 1, 2], 2),
            "mode": rnd.choice([1, 2]),
        }
    if workload == "cli-studies-1d":
        size = STUDIES_SMOKE if smoke else STUDIES_FULL
        text = STUDIES.format(
            pairs=_pair_lines(),
            cells=size["cells"],
            t_final=size["t_final"],
            amplitude=round(rnd.uniform(5e-5, 2e-4), 8),
            species=" ".join(str(s) for s in rnd.sample([1, 2, 3], 2)),
            mode=rnd.choice([1, 2]),
        )
        return {"config": text + "".join(f"{x}\n" for x in size.get("extra", []))}
    if workload == "cli-certify":
        text = CERTIFY.format(
            pairs=_pair_lines(), samples=2000 if smoke else CERTIFY_SAMPLES
        )
        if smoke:
            text += "".join(f"{x}\n" for x in CERTIFY_SMOKE)
        return {"config": text}
    raise ValueError(f"unknown workload {workload!r}")


def check(name, value, threshold, passed):
    return {"check": name, "value": value, "threshold": threshold, "passed": bool(passed)}


class DenseRun:
    """run-2d-dense: ``sim.run`` through the Python API."""

    def __init__(self, inputs):
        from msdiff import DiffusionMatrix, PeriodicGrid, Perturbation, Scenario

        cells = inputs["cells"]
        D = DiffusionMatrix.from_pairs(
            3, {(i - 1, j - 1): v for (i, j), v in PAIRS.items()}
        )
        self.scenario = Scenario(
            n=3,
            D=D,
            grid=PeriodicGrid((cells, cells)),
            t_final=inputs["t_final"],
            preset="sine_mix",
            amplitude=0.4,
            scheme="euler",
            cfl=0.25,
            cadence=1,
            perturbation=Perturbation(
                amplitude=inputs["amplitude"],
                mode=inputs["mode"],
                species=tuple(inputs["species"]),
            ),
        )
        self.initial = self.scenario.initial_state()
        self.steps = inputs["steps"]
        self.cell_count = cells * cells

    def solve(self):
        import numpy as np
        from msdiff import SingularComposition, sim

        try:
            traj = sim.run(self.scenario)
        except SingularComposition as exc:
            return {"checks": [check("no_singular_composition", str(exc), None, False)]}
        steps = len(traj.step_times) - 1
        drift = traj.species_mass_drift()
        defect = traj.simplex_defect()
        series = np.asarray(traj.entropy_series)
        rise = float(np.diff(series).max())
        rise_tol = ENTROPY_TOL * max(1.0, float(np.abs(series).max()))
        checks = [
            check("no_singular_composition", 0, 0, True),
            check("step_count", steps, self.steps, steps == self.steps),
            check("species_mass_drift", drift, MASS_TOL, drift <= MASS_TOL),
            check("simplex_defect", defect, SIMPLEX_TOL, defect <= SIMPLEX_TOL),
            check("entropy_nonincreasing", rise, rise_tol, rise <= rise_tol),
        ]
        health = {
            "clipped_mass": traj.clipped_total,
            "min_composition": min(float(s.min()) for s in traj.states),
            "flux_inf": traj.flux_inf,
        }
        return {
            "checks": checks,
            "health": health,
            "cell_steps": self.cell_count * steps,
        }


class CliRun:
    """CLI workloads: ``msdiff.cli.main`` on a generated config file."""

    def __init__(self, workdir, seed):
        from msdiff import load_config

        self.config_path = os.path.join(workdir, "run.cfg")
        self.out_dir = os.path.join(workdir, "out")
        self.seed = seed
        cfg = load_config(self.config_path)
        self.initial = cfg.scenario.initial_state()

    def solve(self):
        from msdiff import cli

        argv = [self.config_path, "--seed", str(self.seed), "--out", self.out_dir]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        checks = [check("exit_code", code, 0, code == 0)]
        with open(os.path.join(self.out_dir, "summary.json")) as fh:
            summary = json.load(fh)
        checks.append(
            check("summary_exit_code", summary["exit_code"], 0, summary["exit_code"] == 0)
        )
        for suite, block in summary["suites"].items():
            for c in block["checks"]:
                checks.append(
                    check(f"{suite}.{c['check']}", c["value"], c["threshold"], c["passed"])
                )
        manifest_path = os.path.join(self.out_dir, "manifest.json")
        with open(manifest_path, "rb") as fh:
            blob = fh.read()
        manifest = json.loads(blob)
        stale = []
        for entry in manifest["files"]:
            with open(os.path.join(self.out_dir, entry["name"]), "rb") as fh:
                if hashlib.sha256(fh.read()).hexdigest() != entry["sha256"]:
                    stale.append(entry["name"])
        checks.append(check("manifest_matches_files", len(stale), 0, not stale))
        return {
            "checks": checks,
            "health": _cli_health(summary),
            "digest": hashlib.sha256(blob).hexdigest(),
            "files": {e["name"]: e["sha256"] for e in manifest["files"]},
        }


def _cli_health(summary):
    suites = summary["suites"]
    health = {}
    twin = suites.get("twin-study")
    if twin:
        det = twin["details"]
        health.update(
            twin_delta=det["delta"],
            twin_delta_max=det["delta_max"],
            twin_delta_admissible=det["delta_admissible"],
            twin_flux_bound=det["flux_bound"],
        )
    flux = suites.get("flux-certify")
    if flux:
        health["certify_max_residual"] = flux["details"]["max_residual"]
        health["certify_max_oracle_gap"] = flux["details"]["max_oracle_gap"]
    return health


def setup(workload, inputs, workdir, seed):
    if workload == "run-2d-dense":
        return DenseRun(inputs)
    return CliRun(workdir, seed)
