"""Machine description and a fixed calibration, recorded with every run.

The calibration times the same pure-Python loop and the same small numpy
batched solve before and after the measured window, so a run on a busy
or throttled host shows up next to its figures.
"""

from __future__ import annotations

import os
import platform
import shutil
import statistics
import subprocess
import time

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CACHES = ("LEVEL1_DCACHE_SIZE", "LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE")


def _getconf(name):
    exe = shutil.which("getconf")
    if exe is None:
        return None
    try:
        out = subprocess.run([exe, name], capture_output=True, text=True, timeout=5)
    except (OSError, subprocess.TimeoutExpired):
        return None
    value = out.stdout.strip()
    return int(value) if value.isdigit() else None


def info():
    import numpy as np

    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps[k].get("version") for k in ("blas", "lapack") if k in deps}
        blas["name"] = deps.get("blas", {}).get("name")
    except (TypeError, KeyError, AttributeError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "caches_bytes": {name: _getconf(name) for name in CACHES},
        "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
        "machine": platform.machine(),
        "loadavg": os.getloadavg() if hasattr(os, "getloadavg") else None,
    }


def _samples(fn, count=7):
    times = []
    for _ in range(count):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return {"min_s": min(times), "median_s": statistics.median(times)}


def _python_loop():
    s = 0
    for i in range(300_000):
        s += i
    return s


def probe():
    """Seconds for four fixed 3e5-iteration Python loops on the current CPU.

    The workers time it right before and right after each solve, on the
    CPU they are pinned to. The host changes how fast it runs that CPU
    from one minute to the next, and the solve and the probe slow down
    alike, so their ratio holds where the solve time alone does not.
    """
    t0 = time.perf_counter()
    for _ in range(4):
        _python_loop()
    return time.perf_counter() - t0


def calibrate():
    """Fixed Python-loop and numpy-solve timings: min and median of 7 each.

    On a quiet host the median sits near the minimum; a median well above
    it means another tenant was competing for the core.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.uniform(size=(4096, 3, 3)) + 3.0 * np.eye(3)
    b = rng.uniform(size=(4096, 3, 1))

    def solves():
        for _ in range(10):
            np.linalg.solve(a, b)

    return {"python_loop_3e5": _samples(_python_loop), "numpy_solve_4096x3_x10": _samples(solves)}
