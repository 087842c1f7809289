"""msdiff benchmark: entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a source checkout (``src/msdiff`` must be there).
Each repetition is a fresh worker interpreter: set-up is timed from its
start to its ``ready`` line, the solve inside it. New repetitions start
until ``--seconds`` have passed (at least two), and each one finishes.
With ``--trace 0`` the result line carries the end-to-end metrics; with
``--trace 1`` untraced and traced repetitions alternate, and it carries
the per-layer metrics from the traced ones. The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
``--smoke`` shrinks every workload to a few seconds for the tests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time

import machine
import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

SETUP_ONLY = 4  # set-up-only workers per untraced run, on top of one per solve
MIN_REPS = 2  # untraced solves, or untraced/traced pairs when tracing
DEADLINE_S = 170.0

END_TO_END = [
    ("setup_s", "s", "lower"),
    ("solve_in_probes", "1", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]


def _fn(name, *keys):
    units = {"calls": ("count", "lower")}
    return [(f"{name}.{k}",) + units.get(k, ("s", "lower")) for k in keys]


SUITES = ("flux_certify", "spectral_certify", "identity_study",
          "mollifier_study", "twin_study", "convergence_study")

PER_LAYER = (
    _fn("flux.solve_fluxes_batch", "calls", "busy_s", "self_s")
    + [
        ("flux.solve_fluxes_batch.points", "count", "lower"),
        ("flux.solve_fluxes_batch.ns_per_point", "ns", "lower"),
        ("flux.solve_fluxes_batch.max_residual", "1", "lower"),
        ("flux.solve_fluxes_batch.flops_computed", "flop", "lower"),
        ("flux.solve_fluxes_batch.bytes_computed", "B", "lower"),
    ]
    + _fn("flux.assemble_operator", "calls", "busy_s")
    + _fn("flux.spectral_gap_check", "calls", "busy_s")
    + _fn("sim.cell_fluxes", "calls", "busy_s", "self_s")
    + [("sim.cell_fluxes.points", "count", "lower")]
    + _fn("sim._face_divergence", "calls", "busy_s", "self_s")
    + _fn("sim.step", "calls", "busy_s", "self_s")
    + _fn("sim.run", "calls", "busy_s", "self_s")
    + [
        ("sim.run.clipped_mass", "1", "lower"),
        ("sim.run.min_composition", "1", "higher"),
    ]
    + _fn("sim.twin_experiment", "calls", "busy_s", "self_s")
    + [m for f in ("entropy", "identity_series", "identity_residual",
                   "gronwall_certificate", "error_terms", "dissipation")
       for m in _fn(f"entropy.{f}", "calls", "busy_s")]
    + _fn("mollify.mollify_spacetime", "calls", "busy_s")
    + _fn("mollify.initial_trace_mollification", "calls", "busy_s")
    + [m for s in SUITES + ("execute",) for m in _fn(f"suites.{s}", "wall_s", "self_s")]
    + [
        ("suites.twin_study.delta", "1", "lower"),
        ("suites.twin_study.delta_max", "1", "higher"),
        ("suites.twin_study.delta_admissible", "1", "higher"),
    ]
    + _fn("config.load_config", "calls", "busy_s")
    + _fn("cli.main", "wall_s", "self_s")
    + [
        ("trace.spans", "count", "lower"),
        ("trace.solve_s", "s", "lower"),
        ("trace.untraced_solve_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.root_busy_s", "s", "lower"),
        ("trace.unaccounted_s", "s", "lower"),
    ]
)


class WorkerFailed(RuntimeError):
    pass


def code_digest():
    """sha256 over every source file of the program, by relative path."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(SRC)):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, SRC).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


class Runner:
    """Starts worker interpreters one at a time and collects their reports."""

    def __init__(self, workload, seed, workdir, deadline):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.deadline = deadline
        # one fixed CPU, so the probes around a solve time the CPU it ran on
        self.cpu = max(os.sched_getaffinity(0))
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = SRC + (
            os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else ""
        )

    def once(self, trace=False, setup_only=False):
        """Run one worker; returns (setup_s, report or None)."""
        out_dir = os.path.join(self.workdir, "out")
        shutil.rmtree(out_dir, ignore_errors=True)
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", self.workload, "--seed", str(self.seed),
               "--workdir", self.workdir, "--cpu", str(self.cpu)]
        if trace:
            cmd.append("--trace")
        if setup_only:
            cmd.append("--setup-only")
        err_path = os.path.join(self.workdir, "worker.err")
        with open(err_path, "w") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err,
                                    env=self.env, cwd=ROOT, text=True)
            try:
                ready, _, _ = select.select([proc.stdout], [], [],
                                            max(1.0, self.deadline - time.monotonic()))
                line = proc.stdout.readline() if ready else ""
                setup_s = time.perf_counter() - t0
                rest, _ = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                raise WorkerFailed(f"worker passed the {DEADLINE_S:.0f} s deadline")
        if line.strip() != "ready" or proc.returncode != 0:
            with open(err_path) as fh:
                tail = fh.read()[-2000:]
            raise WorkerFailed(f"worker exited {proc.returncode}:\n{tail}")
        if setup_only:
            return setup_s, None
        return setup_s, json.loads(rest.strip().splitlines()[-1])


def median(xs):
    return statistics.median(xs) if xs else 0.0


def solve_in_probes(rep):
    """Solve wall time over the mean of the two probes around it, same CPU."""
    return rep["solve_s"] / statistics.mean(rep["probe_s"])


def collect(runner, seconds, trace):
    """Repetitions until the window is used; returns (setup samples, reps)."""
    setups, reps = [], []
    start = time.monotonic()
    if not trace:
        for _ in range(SETUP_ONLY):
            setups.append(runner.once(setup_only=True)[0])
    pairs = 0
    while True:
        group = [False, True] if trace else [False]
        for traced in group:
            setup_s, report = runner.once(trace=traced)
            if not traced:
                setups.append(setup_s)
            report["traced"] = traced
            reps.append(report)
        pairs += 1
        now = time.monotonic()
        if pairs >= MIN_REPS and (now - start >= seconds
                                  or now + (now - start) / pairs > runner.deadline):
            break
    return setups, reps


def check_digests(workload, seed, smoke, reps, log_path):
    """Same code and seed must give the same manifest digest, run after run."""
    key = f"{workload}|seed={seed}|smoke={int(smoke)}|code={code_digest()}"
    log = {}
    if os.path.exists(log_path):
        with open(log_path) as fh:
            log = json.load(fh)
    expected = log.get(key)
    checks = []
    for rep in reps:
        if "digest" not in rep:
            continue
        if expected is None:
            expected = rep["digest"]
        checks.append(workloads.check("manifest_digest_repeats", rep["digest"],
                                      expected, rep["digest"] == expected))
    if expected is not None and key not in log:
        log[key] = expected
        tmp = log_path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(log, fh, indent=1, sort_keys=True)
        os.replace(tmp, log_path)
    return checks


def check_counts(traced):
    """Per-layer counts must repeat exactly between traced repetitions."""
    def counts(rep):
        t = rep["trace"]
        return ({k: v["calls"] for k, v in t["functions"].items()},
                t["kernel"]["points"], t["kernel"]["snapshot_points"])

    first = counts(traced[0])
    return [workloads.check("trace_counts_repeat", i, 0, counts(r) == first)
            for i, r in enumerate(traced[1:], start=1)]


def per_layer(traced, untraced):
    tables = [r["trace"] for r in traced]

    def fn(name, key):
        return median([t["functions"].get(name, {}).get(key, 0.0) for t in tables])

    def health(key):
        vals = [r.get("health", {}).get(key) for r in traced]
        vals = [float(v) for v in vals if v is not None]
        return median(vals)

    kernel = tables[0]["kernel"]
    k = tracer.KERNEL
    busy = fn(k, "busy_s")
    solve = median([r["solve_s"] for r in traced])
    plain = median([r["solve_s"] for r in untraced])
    extra = {
        f"{k}.points": kernel["points"],
        f"{k}.ns_per_point": 1e9 * busy / kernel["points"] if kernel["points"] else 0.0,
        f"{k}.max_residual": max(t["kernel"]["max_residual"] for t in tables),
        f"{k}.flops_computed": kernel["flops"],
        f"{k}.bytes_computed": kernel["bytes"],
        "sim.cell_fluxes.points": kernel["snapshot_points"],
        "sim.run.clipped_mass": max(t["health"]["clipped"] for t in tables),
        "sim.run.min_composition": min(
            (t["health"]["cmin"] for t in tables if t["health"]["cmin"] is not None),
            default=0.0,
        ),
        "suites.twin_study.delta": health("twin_delta"),
        "suites.twin_study.delta_max": health("twin_delta_max"),
        "suites.twin_study.delta_admissible": health("twin_delta_admissible"),
        "trace.spans": tables[0]["spans"],
        "trace.solve_s": solve,
        "trace.untraced_solve_s": plain,
        "trace.overhead_s": solve - plain,
        "trace.root_busy_s": median([t["root_busy_s"] for t in tables]),
        "trace.unaccounted_s": median([r["solve_s"] - r["trace"]["root_busy_s"] for r in traced]),
    }
    out = {}
    for name, _, _ in PER_LAYER:
        func, key = name.rsplit(".", 1)
        if name in extra:
            out[name] = extra[name]
        elif key == "calls":  # counts repeat exactly; check_counts holds them to it
            out[name] = tables[0]["functions"].get(func, {}).get("calls", 0)
        else:
            out[name] = fn(func, "busy_s" if key == "wall_s" else key)
    return out


def layer_table(traced):
    """Every traced function, sorted by self time, for the log."""
    rows = {}
    for r in traced:
        for name, row in r["trace"]["functions"].items():
            rows.setdefault(name, []).append(row)
    lines = []
    for name, rs in sorted(rows.items(), key=lambda kv: -median([r["self_s"] for r in kv[1]])):
        lines.append(f"  {name:<40} calls {rs[0]['calls']:>8}  busy {median([r['busy_s'] for r in rs]):9.4f} s"
                     f"  self {median([r['self_s'] for r in rs]):9.4f} s")
    return lines


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, for the benchmark's own tests")
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    # single-threaded BLAS here and in every worker
    for var in machine.BLAS_ENV:
        os.environ[var] = "1"
    if not os.path.isfile(os.path.join(SRC, "msdiff", "__init__.py")):
        print(f"error: no msdiff sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    tag = args.workload + ("-smoke" if args.smoke else "")
    workdir = os.path.join(OUT, tag)
    os.makedirs(workdir, exist_ok=True)
    inputs = workloads.make_inputs(args.workload, args.seed, args.smoke)
    with open(os.path.join(workdir, "inputs.json"), "w") as fh:
        json.dump(inputs, fh, indent=1, sort_keys=True)
    if "config" in inputs:
        with open(os.path.join(workdir, "run.cfg"), "w") as fh:
            fh.write(inputs["config"])

    runner = Runner(args.workload, args.seed, workdir, deadline)
    host = machine.info()
    checks = []
    failure = None
    try:
        runner.once(setup_only=True)  # untimed: byte-compiles and warms the file cache
        calib_before = machine.calibrate()
        setups, reps = collect(runner, args.seconds, bool(args.trace))
        calib_after = machine.calibrate()
    except WorkerFailed as exc:
        failure = str(exc)
        setups, reps, calib_before, calib_after = [], [], {}, {}
        print(f"error: {failure}", file=sys.stderr)

    untraced = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    for r in reps:
        checks.extend(r["checks"])
    checks.extend(check_digests(args.workload, args.seed, args.smoke, reps,
                                os.path.join(OUT, "digests.json")))
    if len(traced) > 1:
        checks.extend(check_counts(traced))
    failed = sum(not c["passed"] for c in checks) + (failure is not None)
    attempted = max(1, len(checks) + (failure is not None))

    metrics = {}
    if untraced and not args.trace:
        metrics = {
            "setup_s": median(setups),
            "solve_in_probes": median([solve_in_probes(r) for r in untraced]),
            "peak_rss_mb": median([r["peak_rss_mb"] for r in untraced]),
        }
    elif traced:
        metrics = per_layer(traced, untraced)
    units = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  smoke {int(args.smoke)}")
    print(f"why: {workloads.WHY[args.workload]}")
    print("machine: " + json.dumps(host, sort_keys=True))
    print("calibration before: " + json.dumps(calib_before, sort_keys=True))
    print("calibration after:  " + json.dumps(calib_after, sort_keys=True))
    print(f"repetitions: {len(untraced)} untraced, {len(traced)} traced; "
          f"set-up samples: {len(setups)}")
    if untraced:
        solve = median([r["solve_s"] for r in untraced])
        print("solve_s samples: " + " ".join(f"{r['solve_s']:.4f}" for r in untraced))
        print("probe_s before/after each solve: "
              + " ".join(f"{a:.4f}/{b:.4f}" for a, b in (r["probe_s"] for r in untraced)))
        print("solve_in_probes samples: "
              + " ".join(f"{solve_in_probes(r):.3f}" for r in untraced))
        print("setup_s samples: " + " ".join(f"{s:.4f}" for s in setups))
        print(f"metric solve_s = {solve:.6g} s")
        cell_steps = untraced[0].get("cell_steps")
        if cell_steps:
            print(f"metric cell_steps_per_s = {cell_steps / solve:.6g} 1/s")
        print("health: " + json.dumps(untraced[0].get("health", {}), sort_keys=True))
    print(f"metric check_fail_ratio = {failed / attempted:.6g} 1 ({failed}/{attempted} checks)")
    for c in checks:
        if not c["passed"]:
            print(f"FAILED check {c['check']}: {c['value']} vs {c['threshold']}")
    if traced:
        print("traced functions (median over traced repetitions):")
        print("\n".join(layer_table(traced)))
    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {units[name]}")

    record = {
        "args": vars(args), "machine": host, "calibration": [calib_before, calib_after],
        "setup_s": setups, "reps": [{k: v for k, v in r.items() if k != "trace"} for r in reps],
        "checks": checks, "metrics": metrics, "failure": failure,
    }
    stamp = time.strftime("%Y%m%dT%H%M%S")
    rec_dir = os.path.join(OUT, "records")
    os.makedirs(rec_dir, exist_ok=True)
    with open(os.path.join(rec_dir, f"{tag}-seed{args.seed}-trace{args.trace}-{stamp}.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True, default=str)

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
