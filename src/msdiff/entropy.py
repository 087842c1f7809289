"""Entropy functionals and the stability estimates built on them.

Everything here is a plain quadrature over grid fields: the mixing
entropy, relative entropies (plain, symmetrized and shift-regularized),
the renormalized entropy of a user-supplied convex profile, the pairwise
dissipation form, the discrete entropy-identity residual for trajectory
pairs, the four cross-term functionals of the twin estimate together
with their certified upper bounds, and an exponential stability
certificate assembled from all of the above.

Each functional is one array core on species-first fields, (n, *cells) and
(n, dim, *cells); axes between those and the cells are batch axes that the
result keeps. Trajectory functionals evaluate blocks of snapshots per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import rel_entr, xlogy

from .flux import DeltaOutOfRange, _velocities, stability_constants
from .grid import ConcentrationState, GridMismatch, integrate


class MeshMismatch(ValueError):
    """Trajectory pairs must share snapshot times."""


class DeltaNonpositive(ValueError):
    """A positive shift is required."""


@dataclass
class RenormFunction:
    """A scalar profile with derivatives, used to renormalize entropies.

    f, df, d2f  -- the profile and its first two derivatives, vectorized
    antideriv   -- the primitive of f with antideriv(0) = 0, if available
    """

    f: callable
    df: callable
    d2f: callable
    antideriv: callable = None
    label: str = "custom"


def identity_renorm():
    return RenormFunction(
        f=lambda s: s,
        df=lambda s: np.ones_like(s),
        d2f=lambda s: np.zeros_like(s),
        antideriv=lambda s: 0.5 * s**2,
        label="identity",
    )


def log_shift_renorm(delta):
    """The profile ln(s + delta); bounded derivatives for delta > 0."""
    if delta <= 0.0:
        raise DeltaNonpositive(f"log shift needs delta > 0, got {delta}")

    def antideriv(s):
        return (s + delta) * np.log(s + delta) - s - delta * math.log(delta)

    return RenormFunction(
        f=lambda s: np.log(s + delta),
        df=lambda s: 1.0 / (s + delta),
        d2f=lambda s: -1.0 / (s + delta) ** 2,
        antideriv=antideriv,
        label=f"log_shift({delta!r})",
    )


def square_renorm():
    return RenormFunction(
        f=lambda s: s**2,
        df=lambda s: 2.0 * s,
        d2f=lambda s: 2.0 * np.ones_like(s),
        antideriv=lambda s: s**3 / 3.0,
        label="square",
    )


def _pair_layout(a, b):
    if a.grid != b.grid:
        raise GridMismatch("states live on different grids")
    if a.n != b.n:
        raise GridMismatch(f"species counts differ: {a.n} vs {b.n}")
    return a.grid


def _mixing_entropy(c, grid):
    return integrate((xlogy(c, c) - c).sum(axis=0), grid)


def entropy(state):
    """Mixing entropy H = integral of sum_i c_i (ln c_i - 1); 0 ln 0 = 0."""
    return _mixing_entropy(state.c, state.grid)


def _relative_entropy(c, cb, grid):
    return integrate((rel_entr(c, cb) - (c - cb)).sum(axis=0), grid)


def relative_entropy(a, b):
    """H(a|b) = integral of sum_i [c_i ln(c_i/cb_i) - (c_i - cb_i)].

    Infinite when a has mass where b vanishes; the convention 0 ln 0 = 0
    applies where a vanishes.
    """
    return _relative_entropy(a.c, b.c, _pair_layout(a, b))


def _symmetrized_entropy(c, cb, grid, both_vanish="inf"):
    pos = (c > 0.0) & (cb > 0.0)
    infinite = (c > 0.0) ^ (cb > 0.0)
    if both_vanish == "inf":
        infinite |= (c <= 0.0) & (cb <= 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        gap = (np.log(np.where(pos, c, 1.0)) - np.log(np.where(pos, cb, 1.0))) * (c - cb)
    # one infinite cell makes the whole integral +inf
    cells = np.where(pos, gap, np.where(infinite, math.inf, 0.0))
    return integrate(cells.sum(axis=0), grid)


def symmetrized_relative_entropy(a, b, both_vanish="inf"):
    """Symmetrized relative entropy, integral of (ln c - ln cb)(c - cb).

    Where exactly one of the two concentrations vanishes the integrand is
    +inf. Where both vanish the limit is ambiguous; ``both_vanish`` selects
    "inf" (default) or "zero".
    """
    if both_vanish not in ("inf", "zero"):
        raise ValueError(f"both_vanish must be 'inf' or 'zero', got {both_vanish!r}")
    return _symmetrized_entropy(a.c, b.c, _pair_layout(a, b), both_vanish)


def _regularized_entropy(c, cb, delta, grid):
    cells = (np.log(c + delta) - np.log(cb + delta)) * (c - cb)
    return integrate(cells.sum(axis=0), grid)


def regularized_relative_entropy(a, b, delta):
    """Shift-regularized symmetric entropy, always finite for delta > 0."""
    if delta <= 0.0:
        raise DeltaNonpositive(f"regularization needs delta > 0, got {delta}")
    return _regularized_entropy(a.c, b.c, delta, _pair_layout(a, b))


def _renormalized_entropy(c, beta, grid):
    return integrate(beta.antideriv(c).sum(axis=0), grid)


def renormalized_entropy(state, beta):
    """Integral of the primitive of the profile over all species."""
    if beta.antideriv is None:
        raise ValueError(f"profile {beta.label} has no antiderivative")
    return _renormalized_entropy(state.c, beta, state.grid)


def _trajectory_pair(traj_a, traj_b):
    """Snapshot times and grid shared by a trajectory pair."""
    ta, tb = np.asarray(traj_a.times), np.asarray(traj_b.times)
    if ta.shape != tb.shape or np.abs(ta - tb).max() > 1e-12:
        raise MeshMismatch("trajectories have different snapshot times")
    if traj_a.grid != traj_b.grid:
        raise GridMismatch("trajectories live on different grids")
    return ta, traj_a.grid


# values in the largest temporary of one block of snapshots or states, so
# that batched memory does not grow with their count
_BLOCK_VALUES = 2**15


def _blockwise(fn, traj_a, traj_b):
    """Evaluate fn(c, cb, J, Jb) over the snapshots of a trajectory pair.

    fn gets species-first views of a block of S snapshots, states (n, S, *cells)
    and fluxes (n, dim, S, *cells), and returns (S,) arrays, each joined over blocks.
    """
    per = max(1, _BLOCK_VALUES // (traj_a.n * traj_a.fluxes[0].size))
    parts = []
    for lo in range(0, len(traj_a.states), per):
        states = [np.moveaxis(t.states[lo:lo + per], 0, 1) for t in (traj_a, traj_b)]
        fluxes = [np.moveaxis(t.fluxes[lo:lo + per], 0, 2) for t in (traj_a, traj_b)]
        parts.append(fn(*states, *fluxes))
    return [np.concatenate(column) for column in zip(*parts)]


def _cumulative_trapezoid(values, times):
    """Trapezoid integrals of a sampled series from the first time to each."""
    steps = np.diff(times) * 0.5 * (values[1:] + values[:-1])
    return np.concatenate([[0.0], np.cumsum(steps)])


def _velocity_gap(d, dbar, dv):
    """Per-species cells (d_i + dbar_i) |dv_i|^2; their sum is the S integrand."""
    return (d + dbar) * (dv**2).sum(axis=1)


def _weights_and_grid(a, grid):
    if isinstance(a, ConcentrationState):
        return a.c, a.grid
    if grid is None:
        raise GridMismatch("raw weight arrays need an explicit grid")
    return np.asarray(a, dtype=float), grid


def dissipation(a, b, u, ubar, D, grid=None):
    """Pairwise velocity-difference dissipation of a trajectory pair.

    Q = integral of sum_{i != j} (w_i w_j + wb_i wb_j) / (2 D_ij)
        |(u_i - ubar_i) - (u_j - ubar_j)|^2.

    ``a`` and ``b`` may be states or plain nonnegative weight fields (the
    shifted variant passes c + delta); velocities have shape (n, dim, *cells).
    Raw fields may carry batch axes before the cells; the result keeps them.
    """
    w, g1 = _weights_and_grid(a, grid)
    wb, g2 = _weights_and_grid(b, grid)
    if g1 != g2:
        raise GridMismatch("states live on different grids")
    du = np.asarray(u, dtype=float) - np.asarray(ubar, dtype=float)
    weights = np.einsum("i...,j...->ij...", w, w) + np.einsum("i...,j...->ij...", wb, wb)
    rel2 = ((du[:, None] - du[None]) ** 2).sum(axis=2)
    # the contraction runs over ordered pairs, so each pair counts twice
    cells = 0.5 * np.einsum("ij,ij...,ij...->...", D.inv, weights, rel2)
    return integrate(cells, g1)


def _entropy_rhs(c, cb, u, ub, D, grid):
    """Right-hand side of the symmetric-entropy balance for a pair."""
    mix = c[:, None, None] * (ub[:, None] - ub[None]) + cb[:, None, None] * (u[:, None] - u[None])
    cells = np.einsum("ij,j...,ia...,ija...->...", D.inv, c - cb, u - ub, mix)
    return -integrate(cells, grid)


@dataclass
class IdentityResidual:
    residual: float
    dh_sym: float
    q_integral: float
    rhs_integral: float
    window: tuple


@dataclass
class IdentitySeries:
    """Per-snapshot pieces of the symmetric-entropy balance for a pair."""

    times: np.ndarray
    h_sym: np.ndarray
    q_values: np.ndarray
    rhs_values: np.ndarray
    q_cumulative: np.ndarray
    rhs_cumulative: np.ndarray

    def residuals(self):
        """|Delta H_sym + int Q - int RHS| from the first snapshot to each."""
        return np.abs(
            (self.h_sym - self.h_sym[0]) + self.q_cumulative - self.rhs_cumulative
        )


def identity_series(traj_a, traj_b, D):
    """Evaluate the symmetric-entropy balance pieces at every snapshot.

    Velocities come from the recorded fluxes with a small positivity floor;
    time integrals are cumulative trapezoids over the snapshot times.
    Trajectories must share snapshot times and grids.
    """
    ta, grid = _trajectory_pair(traj_a, traj_b)

    def pieces(c, cb, J, Jb):
        u, ub = _velocities(J, c), _velocities(Jb, cb)
        return (
            _symmetrized_entropy(c, cb, grid),
            dissipation(c, cb, u, ub, D, grid),
            _entropy_rhs(c, cb, u, ub, D, grid),
        )

    h_vals, q_vals, rhs_vals = _blockwise(pieces, traj_a, traj_b)
    return IdentitySeries(
        times=ta,
        h_sym=h_vals,
        q_values=q_vals,
        rhs_values=rhs_vals,
        q_cumulative=_cumulative_trapezoid(q_vals, ta),
        rhs_cumulative=_cumulative_trapezoid(rhs_vals, ta),
    )


def identity_residual(traj_a, traj_b, D, window=None):
    """Discrete defect of the symmetric-entropy balance over a time window.

    Compares the change of the symmetrized relative entropy against the
    time-integrated dissipation and the exchange term, both by trapezoid
    quadrature on the recorded snapshots (trapezoids are interval-additive,
    so windowed values agree with differences of the cumulative series).
    """
    series = identity_series(traj_a, traj_b, D)
    ta = series.times
    lo = window[0] if window is not None else ta[0]
    hi = window[1] if window is not None else ta[-1]
    sel = np.nonzero((ta >= lo - 1e-12) & (ta <= hi + 1e-12))[0]
    if sel.size < 2:
        raise ValueError("window must contain at least two snapshots")
    a, b = sel[0], sel[-1]
    dh = float(series.h_sym[b] - series.h_sym[a])
    q_int = float(series.q_cumulative[b] - series.q_cumulative[a])
    rhs_int = float(series.rhs_cumulative[b] - series.rhs_cumulative[a])
    return IdentityResidual(
        residual=abs(dh + q_int - rhs_int),
        dh_sym=dh,
        q_integral=q_int,
        rhs_integral=rhs_int,
        window=(float(ta[a]), float(ta[b])),
    )


@dataclass
class ErrorTerms:
    """The four cross-term functionals of the twin estimate at one instant.

    Each value comes with the certified upper bound built from the
    stability constants; ``s_dissipation`` and ``r_distance`` are the
    weighted velocity-difference and concentration-distance integrals the
    bounds are expressed in. Batched fields give arrays over the batch.
    """

    j1: float
    j2: float
    j3: float
    j4: float
    bound_j12: float
    bound_j3: float
    bound_j4: float
    s_dissipation: float
    r_distance: float
    q_shifted: float
    q_lower_bound: float
    flux_bound: float
    constants: object

    def respects_bounds(self, slack=1e-12):
        ref = lambda b: b + slack * np.maximum(1.0, np.abs(b))
        return bool(
            np.all(self.j1 + self.j2 <= ref(self.bound_j12))
            and np.all(self.j3 <= ref(self.bound_j3))
            and np.all(self.j4 <= ref(self.bound_j4))
        )


def error_terms(d, dbar, v, vbar, D, delta, grid, flux_bound=None):
    """Evaluate the four twin cross terms and their certified bounds.

    d, dbar      -- shifted concentrations (entries >= delta), shape (n, *cells)
    v, vbar      -- partial velocities, shape (n, dim, *cells)
    flux_bound   -- sup-norm bound on d_i v_i; measured from the fields if omitted

    Batch axes may sit before the cells; the values keep them, and a
    measured flux bound is the sup over the whole batch. The dissipation
    lower bound ``q_lower_bound`` additionally requires the velocity
    fields to satisfy the zero-sum constraint sum_i d_i v_i = 0.
    """
    if delta <= 0.0:
        raise DeltaNonpositive(f"error terms need delta > 0, got {delta}")
    if delta >= 1.0:
        raise DeltaOutOfRange(f"error terms need delta < 1, got {delta}")
    d, dbar, v, vbar = (np.asarray(x, dtype=float) for x in (d, dbar, v, vbar))
    n = d.shape[0]
    K = D.inv
    dv = v - vbar
    dd = d - dbar
    gap = _velocity_gap(d, dbar, dv)

    if flux_bound is None:
        speed = lambda w, vel: np.sqrt(((w[:, None] * vel) ** 2).sum(axis=1)).max()
        flux_bound = max(speed(d, v), speed(dbar, vbar))

    pair = "ij,i...,j...,ia...,ija...->..."
    j1_cells = np.einsum(pair, K, d, dd, dv, vbar[:, None] - vbar[None])
    j2_cells = np.einsum(pair, K, dbar, dd, dv, v[:, None] - v[None])
    # mix[i, j] = (d_j / d_i) v_j - (dbar_j / dbar_i) vbar_j
    ratio = lambda w: (w[None] / w[:, None])[:, :, None]
    mix = ratio(d) * v[None] - ratio(dbar) * vbar[None]
    j4_cells = np.einsum("ij,i...,ia...,ija...->...", K, d + dbar, dv, mix)
    j3_cells = np.einsum("i,i...->...", K.sum(axis=1), gap)
    j1 = -integrate(j1_cells, grid)
    j2 = -integrate(j2_cells, grid)
    j3 = delta * integrate(j3_cells, grid)
    j4 = -delta * integrate(j4_cells, grid)

    s_val = integrate(gap.sum(axis=0), grid)
    r_val = integrate((dd**2).sum(axis=0), grid)
    q_val = dissipation(d, dbar, v, vbar, D, grid=grid)

    k = stability_constants(D, delta, flux_bound, enforce_admissible=False)
    mu = k.mu
    bound_j12 = 0.25 * mu * s_val + (k.c1 / delta**2) * r_val
    bound_j3 = n * delta * k.big_m * s_val
    bound_j4 = (0.5 * mu + k.c2 * delta) * s_val + (k.c3 / delta**4) * r_val
    q_lower = mu * s_val - (2.0 * n * mu / delta**2) * flux_bound**2 * r_val

    return ErrorTerms(
        j1=j1,
        j2=j2,
        j3=j3,
        j4=j4,
        bound_j12=bound_j12,
        bound_j3=bound_j3,
        bound_j4=bound_j4,
        s_dissipation=s_val,
        r_distance=r_val,
        q_shifted=q_val,
        q_lower_bound=q_lower,
        flux_bound=float(flux_bound),
        constants=k,
    )


def quadratic_log_gap(d, dbar):
    """Gap (d - dbar)(ln d - ln dbar) - (d - dbar)^2, elementwise, for d > 0.

    Nonnegative on (0, 1]^2; on (0, 2]^2 the bound |d - dbar|^2 <=
    (d - dbar)(ln d - ln dbar) needs the factor min(d, dbar, 1)^-1 <= 2.
    """
    d = np.asarray(d, dtype=float)
    dbar = np.asarray(dbar, dtype=float)
    diff = d - dbar
    return diff * (np.log(d) - np.log(dbar)) - diff**2


@dataclass
class GronwallReport:
    """Numerical twin-stability certificate along a trajectory pair.

    Checks, at every recorded time, the master inequality
        F(T) - F(0) + (mu/4 - c4 delta) int S <= (c5 / delta^4) int R
    and the exponential envelope
        R(T) <= 2 A(T) exp(2 (c5/delta^4) T),
    with A(T) = F(0) + max(0, c4 delta - mu/4) int_0^T S. The envelope is
    compared in log space; when delta exceeds its admissible window the
    eroded dissipation margin is carried explicitly instead of dropped,
    and ``admissible`` records the fact.
    """

    times: np.ndarray
    f_series: np.ndarray
    r_series: np.ndarray
    s_series: np.ndarray
    master_lhs: np.ndarray
    master_rhs: np.ndarray
    log_envelope: np.ndarray
    log_r: np.ndarray
    holds_master: bool
    holds_envelope: bool
    admissible: bool
    constants: object
    flux_bound: float

    @property
    def holds(self):
        return self.holds_master and self.holds_envelope


def gronwall_certificate(traj_a, traj_b, D, delta, flux_bound=None, slack=1e-9):
    """Certify the twin stability estimate numerically for two trajectories.

    Velocities are recovered from the recorded fluxes as v = J / (c + delta),
    which satisfies the shifted zero-sum constraint exactly. The flux bound
    defaults to the measured sup of |J_i| over both trajectories.
    """
    if delta <= 0.0:
        raise DeltaNonpositive(f"certificate needs delta > 0, got {delta}")
    ta, grid = _trajectory_pair(traj_a, traj_b)

    def pieces(c, cb, J, Jb):
        d, dbar = c + delta, cb + delta
        dv = _velocities(J, d) - _velocities(Jb, dbar)
        # sup over species and cells of |J_i| per snapshot, both trajectories
        speed = np.sqrt(np.concatenate([(J**2).sum(axis=1), (Jb**2).sum(axis=1)]))
        return (
            _regularized_entropy(c, cb, delta, grid),
            integrate(((c - cb) ** 2).sum(axis=0), grid),
            integrate(_velocity_gap(d, dbar, dv).sum(axis=0), grid),
            speed.reshape(speed.shape[:2] + (-1,)).max(axis=(0, 2)),
        )

    f_series, r_series, s_series, sup_flux = _blockwise(pieces, traj_a, traj_b)
    if flux_bound is None:
        flux_bound = float(sup_flux.max())
    k = stability_constants(D, delta, flux_bound, enforce_admissible=False)

    t0 = ta - ta[0]
    int_r = _cumulative_trapezoid(r_series, ta)
    int_s = _cumulative_trapezoid(s_series, ta)

    margin = 0.25 * k.mu - k.c4 * delta
    rate = k.c5 / delta**4
    master_lhs = f_series - f_series[0] + margin * int_s
    master_rhs = rate * int_r
    ref = np.maximum(1e-300, np.maximum(np.abs(master_rhs), 1.0))
    holds_master = bool(np.all(master_lhs <= master_rhs + slack * ref))

    # envelope in log space; rate/delta^4 overflows exp() for small delta
    forcing = f_series[0] + max(0.0, -margin) * int_s
    with np.errstate(divide="ignore"):
        log_env = np.log(2.0) + np.log(np.maximum(forcing, 0.0)) + 2.0 * rate * t0
        log_r = np.log(r_series)
    if forcing[-1] <= 0.0:
        # identical data and no margin erosion: distances must stay at zero
        holds_envelope = bool(np.all(r_series <= slack))
    else:
        holds_envelope = bool(np.all((r_series <= slack) | (log_r <= log_env + slack)))

    return GronwallReport(
        times=ta,
        f_series=f_series,
        r_series=r_series,
        s_series=s_series,
        master_lhs=master_lhs,
        master_rhs=master_rhs,
        log_envelope=log_env,
        log_r=log_r,
        holds_master=holds_master,
        holds_envelope=holds_envelope,
        admissible=k.admissible,
        constants=k,
        flux_bound=float(flux_bound),
    )


# the columns of the twin study's per-snapshot diagnostics table
CSV_COLUMNS = [
    "time", "entropy", "relative_entropy", "symmetrized_entropy", "regularized_entropy",
    "renorm_entropy", "dissipation", "identity_residual", "j1", "j2", "j3", "j4",
    "gronwall_lhs", "gronwall_rhs",
]
