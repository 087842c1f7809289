"""Per-layer spans recorded from outside the program.

The tracer replaces the public functions of each msdiff layer module with
thin wrappers that record one span per call: name, start, end and the
span that was open when the call began. Functions imported by name into
another module (``sim`` imports ``solve_fluxes_batch``, ``suites`` imports
the entropy functions) are patched there too, because those modules hold
their own references. Spans stay in memory; ``summary`` folds them into
per-function calls, busy time (outermost spans only) and self time (span
duration minus the time covered by its direct children).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

LAYERS = ("flux", "sim", "entropy", "mollify", "suites", "config", "cli")

# private functions that sit on a layer boundary worth timing
PRIVATE = {
    "sim": ("_face_divergence",),
    "suites": ("_identity_level", "_convergence_level", "_twin_reports"),
}

KERNEL = "flux.solve_fluxes_batch"
SNAPSHOT = "sim.cell_fluxes"


def kernel_model(n):
    """Computed (flops, bytes) per point of one bordered force-flux solve.

    Friction assembly 3n^2, bordering n^2, LU factor and solve
    2n^3/3 + 2n^2, residual 2n^2 + 2n, right-hand-side projection 2n.
    Bytes count each float64 array touched once per pass: c, grad and x
    (3n) plus the matrix written, bordered, factored and re-read (5n^2).
    Both ignore cache behaviour, so they are labelled as computed.
    """
    flops = 2.0 * n**3 / 3.0 + 8.0 * n**2 + 4.0 * n
    nbytes = 8.0 * (3 * n + 5 * n**2)
    return flops, nbytes


def _kernel_extra(args, kwargs, result):
    c = args[0]
    return {"points": int(c.shape[0]), "n": int(c.shape[1]), "residual": float(result[1])}


def _run_extra(args, kwargs, result):
    clipped = float(result.clipped_total)
    cmin = min(float(s.min()) for s in result.states)
    return {"clipped": clipped, "cmin": cmin}


EXTRAS = {KERNEL: _kernel_extra, "sim.run": _run_extra}


class Tracer:
    """Records a span for every call of a wrapped function."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []  # [name, start, end, parent index, extra dict or None]
        self.stack = []

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, self.clock
        extra = EXTRAS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if extra is not None:
                span[4] = extra(args, kwargs, result)
            return result

        return wrapper

    def install(self):
        """Patch every layer function wherever an msdiff module refers to it."""
        originals = {}
        for layer in LAYERS:
            # import_module, not attribute access: msdiff.entropy is also a function
            mod = importlib.import_module(f"msdiff.{layer}")
            for attr, obj in vars(mod).items():
                if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                if attr.startswith("_") and attr not in PRIVATE.get(layer, ()):
                    continue
                originals[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
        namespaces = [vars(mod) for name, mod in list(sys.modules.items())
                      if name == "msdiff" or name.startswith("msdiff.")]
        # execute() dispatches through this table, not through module attributes
        namespaces.append(sys.modules["msdiff.suites"]._SUITES)
        for namespace in namespaces:
            for key, obj in list(namespace.items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    namespace[key] = hit[1]
        return self

    def summary(self, since=None):
        """Aggregate spans: per name calls, busy_s, self_s, plus kernel extras.

        ``since`` restricts the root-span total to roots that started at or
        after that clock reading (the solve phase).
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for s in spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        table = {}
        roots = 0.0
        kernel = {"points": 0, "snapshot_points": 0, "max_residual": 0.0,
                  "flops": 0.0, "bytes": 0.0}
        health = {"clipped": 0.0, "cmin": None}
        for i, (name, start, end, parent, extra) in enumerate(spans):
            dur = end - start
            row = table.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += dur - child[i]
            ancestors = []
            p = parent
            while p >= 0:
                ancestors.append(spans[p][0])
                p = spans[p][3]
            if name not in ancestors:
                row["busy_s"] += dur
            if parent < 0 and (since is None or start >= since):
                roots += dur
            if name == KERNEL and extra is not None:
                pts = extra["points"]
                flops, nbytes = kernel_model(extra["n"])
                kernel["points"] += pts
                kernel["flops"] += flops * pts
                kernel["bytes"] += nbytes * pts
                kernel["max_residual"] = max(kernel["max_residual"], extra["residual"])
                if SNAPSHOT in ancestors:
                    kernel["snapshot_points"] += pts
            elif name == "sim.run" and extra is not None:
                health["clipped"] += extra["clipped"]
                if health["cmin"] is None or extra["cmin"] < health["cmin"]:
                    health["cmin"] = extra["cmin"]
        return {"functions": table, "kernel": kernel, "health": health,
                "root_busy_s": roots, "spans": len(spans)}

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write("index,name,start_s,end_s,parent\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{i},{s[0]},{s[1]!r},{s[2]!r},{s[3]}\n")
