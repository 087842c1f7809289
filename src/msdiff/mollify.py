"""Space-time mollification on grids and its regularization studies.

The kernel is the standard smooth bump on (-1, 1), its weights normalized
over the grid offsets they sample. The quadruple-sum operator below
mollifies a space-time integrand against a doubled test function on the
torus, restricted to the positive time half-line; pinning the outer time
at zero isolates the initial trace, where exactly half of the kernel mass
survives the restriction.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np


class EpsilonTooSmallForGrid(ValueError):
    """The mollification width must cover at least two grid spacings."""


def bump_profile(sigma):
    """Unnormalized C-infinity bump exp(-1/(1 - sigma^2)) on (-1, 1)."""
    sigma = np.asarray(sigma, dtype=float)
    inside = np.abs(sigma) < 1.0
    safe = np.where(inside, sigma, 0.0)
    with np.errstate(divide="ignore", over="ignore"):
        vals = np.where(inside, np.exp(-1.0 / (1.0 - safe**2)), 0.0)
    return vals if vals.ndim else float(vals)


def _offsets_and_weights(eps, h, count):
    """Kernel offsets (in cells) and discretely normalized weights.

    The weight at offset a samples the kernel at a*h/eps; weights are
    normalized over the full symmetric offset range so restricted sums
    measure genuine kernel mass fractions.
    """
    reach = int(math.ceil(eps / h)) - 1
    reach = min(reach, count - 1)
    a = np.arange(-reach, reach + 1)
    w = np.asarray(bump_profile(a * h / eps), dtype=float)
    return a, w / w.sum()


def _setup(eps, grid, t_max, t_cells):
    """The set-up that both mollifications share: the grid must be 1-D and
    eps at least two spacings in space and in time. Returns (cell centres
    x, hx, ht, space offsets, their weights)."""
    if grid.dim != 1:
        raise ValueError("space-time mollification is implemented for 1-D grids")
    (nx,) = grid.cells
    hx = grid.spacing[0]
    ht = t_max / t_cells
    if eps < 2.0 * hx or eps < 2.0 * ht:
        raise EpsilonTooSmallForGrid(
            f"eps={eps} must be at least two grid spacings (hx={hx}, ht={ht})"
        )
    (x,) = grid.axes()
    return (x, hx, ht) + _offsets_and_weights(eps, hx, nx)


def mollify_spacetime(f, phi, eps, grid, t_max, t_cells):
    """Quadruple-sum mollification of f against a doubled test function.

    Approximates the pairing of f(y, tau) with
    phi((x+y)/2, (t+tau)/2) * kernel((x-y)/eps) * kernel((t-tau)/eps)
    over the 1-D torus in space and (0, t_max) in time, both integrals
    cell-centered. Inner time points outside (0, t_max) drop out, which is
    the only deviation from unit kernel mass. Converges to the plain
    pairing of f with phi at first order in eps when the integrand does
    not vanish at the time boundary.
    """
    x, hx, ht, ax, wx = _setup(eps, grid, t_max, t_cells)
    nx = len(x)
    t = (np.arange(t_cells) + 0.5) * ht
    at, wt = _offsets_and_weights(eps, ht, t_cells)

    fx = f(x[:, None], t[None, :])
    total = 0.0
    for b, wtb in zip(at, wt):
        tj = np.arange(t_cells) - b
        valid = (tj >= 0) & (tj < t_cells)
        if not np.any(valid):
            continue
        t_out = t[valid]
        t_mid = t_out - 0.5 * b * ht
        fcols = fx[:, tj[valid]]
        for a, wxa in zip(ax, wx):
            idx = (np.arange(nx) - a) % nx
            f_vals = fcols[idx]
            phi_vals = phi(x[:, None] - 0.5 * a * hx, t_mid[None, :])
            total += wtb * wxa * float((f_vals * phi_vals).sum())
    return total * hx * ht


def plain_pairing(f, phi, grid, t_max, t_cells):
    """Midpoint quadrature of f * phi over the same space-time grid."""
    (x,) = grid.axes()
    ht = t_max / t_cells
    t = (np.arange(t_cells) + 0.5) * ht
    return float((f(x[:, None], t[None, :]) * phi(x[:, None], t[None, :])).sum()) * grid.spacing[0] * ht


def initial_trace_mollification(f, phi, eps, grid, t_max, t_cells):
    """Half-line mollification pinned at the initial time.

    Pairs f(y, tau) for tau > 0 against phi((x+y)/2, tau/2) with kernel
    weights centered at time zero. Because only the positive half of the
    symmetric kernel mass survives, the value converges to one half of the
    spatial pairing of f(., 0) with phi(., 0) as eps shrinks.
    """
    x, hx, ht, ax, wx = _setup(eps, grid, t_max, t_cells)
    # cell-centered times (j + 1/2) h are symmetric about zero with their
    # mirror images, so the surviving weight fraction is exactly one half
    j_reach = int(math.ceil(eps / ht))
    tau = (np.arange(j_reach) + 0.5) * ht
    tau = tau[tau < eps]
    w_full = bump_profile(np.concatenate([-tau[::-1], tau]) / eps)
    wt = bump_profile(tau / eps) / w_full.sum()

    total = 0.0
    for a, wxa in zip(ax, wx):
        y = (x - a * hx) % grid.lengths[0]
        mid = x - 0.5 * a * hx
        f_vals = f(y[:, None], tau[None, :])
        phi_vals = phi(mid[:, None], 0.5 * tau[None, :])
        total += wxa * float((f_vals * phi_vals * wt[None, :]).sum())
    return total * hx


def initial_pairing(f, phi, grid):
    (x,) = grid.axes()
    return float((f(x, np.zeros_like(x)) * phi(x, np.zeros_like(x))).sum()) * grid.spacing[0]


def fit_loglog(eps_values, errors):
    """Least-squares slope of log(error) against log(eps), with R^2.

    Logarithms need positive values: an eps or error that is zero, negative
    or NaN gives (nan, nan), not a fit through log(0).
    """
    eps_values = np.asarray(eps_values, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if not (np.all(eps_values > 0.0) and np.all(errors > 0.0)):
        return math.nan, math.nan
    x = np.log(eps_values)
    y = np.log(errors)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - float((resid**2).sum()) / ss_tot if ss_tot > 0.0 else 1.0
    return float(slope), float(r2)


@dataclass
class RateStudy:
    eps_values: list
    values: list
    reference: float
    errors: list
    slope: float
    r2: float


def rate_study(operator, eps_values, reference, csv_path=None):
    """Run ``operator(eps)`` over widths, fit the log-log error slope.

    Writes epsilon/value/reference/error rows when ``csv_path`` is given.
    """
    eps_values = sorted(float(e) for e in eps_values)
    values = [float(operator(e)) for e in eps_values]
    errors = [abs(v - reference) for v in values]
    slope, r2 = fit_loglog(eps_values, errors)
    study = RateStudy(
        eps_values=eps_values,
        values=values,
        reference=float(reference),
        errors=errors,
        slope=slope,
        r2=r2,
    )
    if csv_path is not None:
        with open(csv_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epsilon", "value", "reference", "error"])
            for e, v, err in zip(eps_values, values, errors):
                writer.writerow([repr(e), repr(v), repr(study.reference), repr(err)])
    return study
