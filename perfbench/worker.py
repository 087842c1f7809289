"""One benchmark repetition in a fresh interpreter.

Protocol on standard output: the line ``ready`` once set-up is done
(``run.py`` times set-up from process start to this line), then, unless
``--setup-only``, one JSON report line. Everything msdiff prints goes to
a buffer, never to this stream.

    python3 perfbench/worker.py --workload NAME --seed N --workdir DIR [--cpu K] [--trace] [--setup-only]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--cpu", type=int, help="pin this process to one CPU")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})
    out = sys.stdout

    import msdiff  # noqa: F401  (set-up includes the package import)

    import workloads

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer().install()
    with open(os.path.join(args.workdir, "inputs.json")) as fh:
        inputs = json.load(fh)
    wl = workloads.setup(args.workload, inputs, args.workdir, args.seed)
    out.write("ready\n")
    out.flush()
    if args.setup_only:
        return 0

    import machine

    probe_before = machine.probe()
    t0 = time.perf_counter()
    result = wl.solve()
    solve_s = time.perf_counter() - t0
    probe_after = machine.probe()
    report = {
        "solve_s": solve_s,
        "probe_s": [probe_before, probe_after],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **result,
    }
    if tracer is not None:
        report["trace"] = tracer.summary(since=t0)
        tracer.write_spans(os.path.join(args.workdir, "spans.csv"))
    out.write(json.dumps(report) + "\n")
    out.flush()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
