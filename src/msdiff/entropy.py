"""Entropy functionals and the stability estimates built on them.

Plain quadratures over grid fields: the mixing, relative (plain,
symmetrized, shifted) and renormalized entropies, the pairwise
dissipation, the entropy-identity series of trajectory pairs, the
twin estimate's four cross terms with their certified bounds, and an
exponential stability certificate built from them.

Each functional is one array core on species-first fields, (n, *cells) and
(n, dim, *cells); axes between those and the cells are batch axes that the
result keeps. Sums over species pairs expand into contractions
(K f)_i = sum_j K_ij f_j of (n, ...) fields with K = D.inv, so no
(n, n, ...) array is formed. A trajectory pair of one Maxwell-Stefan
system is evaluated with its runs' own D, in one pass over blocks of
snapshots (``sim._blockwise``) that solves and drops each block's fluxes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .flux import DeltaOutOfRange, stability_constants
from .grid import GridMismatch, integrate
from .sim import _blockwise, _snapshot_fluxes


@dataclass
class RenormFunction:
    """A scalar profile with derivatives, used to renormalize entropies.

    f, df, d2f  -- the profile and its first two derivatives, vectorized
    antideriv   -- the primitive of f with antideriv(0) = 0
    """

    f: callable
    df: callable
    d2f: callable
    antideriv: callable


def identity_renorm():
    return RenormFunction(
        f=lambda s: s,
        df=lambda s: np.ones_like(s),
        d2f=lambda s: np.zeros_like(s),
        antideriv=lambda s: 0.5 * s**2,
    )


def log_shift_renorm(delta):
    """The profile ln(s + delta); bounded derivatives for delta > 0."""
    if delta <= 0.0:
        raise DeltaOutOfRange(f"log shift needs delta > 0, got {delta}")

    def antideriv(s):
        return (s + delta) * np.log(s + delta) - s - delta * math.log(delta)

    return RenormFunction(
        f=lambda s: np.log(s + delta),
        df=lambda s: 1.0 / (s + delta),
        d2f=lambda s: -1.0 / (s + delta) ** 2,
        antideriv=antideriv,
    )


def square_renorm():
    return RenormFunction(
        f=lambda s: s**2,
        df=lambda s: 2.0 * s,
        d2f=lambda s: 2.0 * np.ones_like(s),
        antideriv=lambda s: s**3 / 3.0,
    )


_TINY = np.finfo(float).tiny


def _xlogy(x, y):
    """x ln y, and 0 where x = 0 unless y is NaN; NaN where y < 0. The
    conventions of scipy.special.xlogy."""
    with np.errstate(all="ignore"):
        return np.where((x == 0.0) & (y == y), 0.0, x * np.log(y))


def _rel_entr(x, y):
    """x ln(x/y) where x, y > 0; 0 where x = 0 <= y; +inf elsewhere, and
    NaN where x or y is. The conventions of scipy.special.rel_entr, and
    its branches: log1p of (x - y)/y, exact for x/y in (1/2, 2), so near
    equal fields keep their small values, and ln x - ln y where x/y
    under- or overflows."""
    with np.errstate(all="ignore"):
        ratio = x / y
        log = np.where(
            (0.5 < ratio) & (ratio < 2.0),
            np.log1p((x - y) / y),
            np.where((_TINY < ratio) & (ratio < math.inf), np.log(ratio), np.log(x) - np.log(y)),
        )
        val = x * log
    finite = ((x > 0.0) & (y > 0.0)) | (x != x) | (y != y)
    return np.where(finite, val, np.where((x == 0.0) & (y >= 0.0), 0.0, math.inf))


def _mixing_entropy(c, grid):
    return integrate((_xlogy(c, c) - c).sum(axis=0), grid)


def entropy(state):
    """Mixing entropy H = integral of sum_i c_i (ln c_i - 1); 0 ln 0 = 0."""
    return _mixing_entropy(state.c, state.grid)


def _relative_entropy(c, cb, grid):
    """H(c|cb) = integral of sum_i [c_i ln(c_i/cb_i) - (c_i - cb_i)]; +inf
    where c has mass and cb vanishes, and 0 ln 0 = 0 where c vanishes."""
    return integrate((_rel_entr(c, cb) - (c - cb)).sum(axis=0), grid)


def _symmetrized_entropy(c, cb, grid):
    """Integral of sum_i (ln c_i - ln cb_i)(c_i - cb_i); one cell where c_i
    or cb_i vanishes makes it +inf."""
    pos = (c > 0.0) & (cb > 0.0)
    gap = (np.log(np.where(pos, c, 1.0)) - np.log(np.where(pos, cb, 1.0))) * (c - cb)
    return integrate(np.where(pos, gap, math.inf).sum(axis=0), grid)


def _regularized_entropy(c, cb, delta, grid):
    cells = (np.log(c + delta) - np.log(cb + delta)) * (c - cb)
    return integrate(cells.sum(axis=0), grid)


def regularized_relative_entropy(a, b, delta):
    """Shift-regularized symmetric entropy, always finite for delta > 0."""
    if delta <= 0.0:
        raise DeltaOutOfRange(f"regularization needs delta > 0, got {delta}")
    if a.grid != b.grid:
        raise GridMismatch("states live on different grids")
    if a.n != b.n:
        raise GridMismatch(f"species counts differ: {a.n} vs {b.n}")
    return _regularized_entropy(a.c, b.c, delta, a.grid)


def _renormalized_entropy(c, beta, grid):
    """Integral of the primitive of the profile beta over all species."""
    return integrate(beta.antideriv(c).sum(axis=0), grid)


def _velocities(j, w, floor=1e-14):
    """Velocities j_i / max(w_i, floor); j is (n,), (n, dim) or (n, dim, *cells)."""
    w = np.maximum(np.asarray(w, dtype=float), floor)
    return j / (w[:, None] if j.ndim > w.ndim else w)


def _contract(K, f):
    """(K f)_i = sum_j K_ij f_j over the leading species axis of f."""
    return np.einsum("ij,j...->i...", K, f)


def _cumulative_trapezoid(values, times):
    """Trapezoid integrals of a sampled series from the first time to each:
    values is (S,) or (S, k), one row per time."""
    dt = np.diff(times).reshape((-1,) + (1,) * (values.ndim - 1))
    steps = dt * 0.5 * (values[1:] + values[:-1])
    return np.concatenate([np.zeros((1,) + values.shape[1:]), np.cumsum(steps, axis=0)])


def dissipation(w, wb, u, ubar, D, grid):
    """Pairwise velocity-difference dissipation of a trajectory pair.

    Q = integral of sum_{i != j} (w_i w_j + wb_i wb_j) / (2 D_ij)
        |(u_i - ubar_i) - (u_j - ubar_j)|^2.

    w and wb are nonnegative weight fields (n, *cells) on grid: the
    compositions, or c + delta for the shifted variant; velocities have
    shape (n, dim, *cells). Batch axes may sit before the cells; the result
    keeps them. Each weight x contributes
    sum_i x_i (K x)_i |du_i|^2 - sum_a (x du_a)' K (x du_a).
    """
    du = np.asarray(u, dtype=float) - np.asarray(ubar, dtype=float)
    sq, cells = (du**2).sum(axis=1), 0.0
    for x in (np.asarray(w, dtype=float), np.asarray(wb, dtype=float)):
        f = x[:, None] * du
        cells = cells + (x * _contract(D.inv, x) * sq).sum(axis=0)
        cells = cells - (f * _contract(D.inv, f)).sum(axis=(0, 1))
    return integrate(cells, grid)


def _entropy_rhs(c, cb, u, ub, D, grid):
    """Right-hand side of the symmetric-entropy balance for a pair:
    minus the integral of sum_i (K dc)_i du_i.(c_i ub_i + cb_i u_i)
    - sum_i du_i.(c_i (K(dc ub))_i + cb_i (K(dc u))_i)."""
    K = D.inv
    dc, du = c - cb, u - ub
    c, cb, dc = c[:, None], cb[:, None], dc[:, None]
    lead = _contract(K, dc) * (c * ub + cb * u)
    back = c * _contract(K, dc * ub) + cb * _contract(K, dc * u)
    return -integrate((du * (lead - back)).sum(axis=(0, 1)), grid)


def _cross_terms(d, dbar, v, vbar, K, delta, grid):
    """The twin cross terms j1..j4 of shifted fields, and the per-species
    cells (d_i + dbar_i) |dv_i|^2 whose sum is the S integrand."""
    dv = v - vbar
    gap = (d + dbar) * (dv**2).sum(axis=1)
    d, dbar = d[:, None], dbar[:, None]
    dd = d - dbar
    k_dd = _contract(K, dd)
    total = lambda cells: integrate(cells.sum(axis=(0, 1)), grid)

    def drift(w, vel):  # sum_i w_i dv_i.sum_j K_ij dd_j (vel_i - vel_j)
        return -total(w * dv * (k_dd * vel - _contract(K, dd * vel)))

    # d_i sum_j K_ij (d_j v_j / d_i - dbar_j vbar_j / dbar_i), with the small
    # difference of the two fluxes taken before K acts
    flux_bar = dbar * vbar
    mix = _contract(K, d * v - flux_bar) - _contract(K, flux_bar) * (dd / dbar)
    j3 = delta * integrate(np.einsum("i,i...->...", K.sum(axis=1), gap), grid)
    j4 = -delta * total((d + dbar) * dv * mix / d)
    return drift(d, vbar), drift(dbar, v), j3, j4, gap


def _pair_columns(traj_a, traj_b, delta=None):
    """Every per-snapshot column of a trajectory pair, in one blocked pass.

    The runs must share snapshot times, grid and D, the D of every
    functional. Each block's fluxes J are one face solve of the block
    (``sim._snapshot_fluxes``), dropped with it; this holds the last state
    to the kernel's residual test. Velocities: u = J / max(c, 1e-14) for
    the entropy identity and, when delta is given, v = J / (c + delta) for
    the twin columns. Returns the snapshot times and a dict of (S,) columns.
    """
    ta, tb = np.asarray(traj_a.times), np.asarray(traj_b.times)
    if ta.shape != tb.shape or np.abs(ta - tb).max() > 1e-12:
        raise GridMismatch("trajectories have different snapshot times")
    if traj_a.grid != traj_b.grid:
        raise GridMismatch("trajectories live on different grids")
    if not np.array_equal(traj_a.D.d, traj_b.D.d):
        raise ValueError("trajectories have different diffusion matrices")
    grid, D = traj_a.grid, traj_a.D
    beta = None if delta is None else log_shift_renorm(delta)

    def columns(c, cb):
        J, Jb = _snapshot_fluxes(c, D, grid), _snapshot_fluxes(cb, D, grid)
        u, ub = _velocities(J, c), _velocities(Jb, cb)
        out = dict(symmetrized_entropy=_symmetrized_entropy(c, cb, grid),
                   dissipation=dissipation(c, cb, u, ub, D, grid),
                   rhs=_entropy_rhs(c, cb, u, ub, D, grid))
        if delta is None:
            return out
        d, dbar = c + delta, cb + delta
        j1, j2, j3, j4, gap = _cross_terms(
            d, dbar, _velocities(J, d), _velocities(Jb, dbar), D.inv, delta, grid
        )
        speed = np.sqrt(np.concatenate([(J**2).sum(axis=1), (Jb**2).sum(axis=1)]))
        return dict(
            out,
            regularized_entropy=_regularized_entropy(c, cb, delta, grid),
            r_distance=integrate(((c - cb) ** 2).sum(axis=0), grid),
            s_dissipation=integrate(gap.sum(axis=0), grid),
            sup_flux=speed.reshape(speed.shape[:2] + (-1,)).max(axis=(0, 2)),
            entropy=_mixing_entropy(c, grid),
            relative_entropy=_relative_entropy(c, cb, grid),
            renorm_entropy=_renormalized_entropy(c, beta, grid),
            j1=j1, j2=j2, j3=j3, j4=j4,
        )

    return ta, _blockwise(columns, grid, traj_a.states, traj_b.states)


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


def _identity_series(ta, cols):
    q, rhs = cols["dissipation"], cols["rhs"]
    return IdentitySeries(ta, cols["symmetrized_entropy"], q, rhs,
                          _cumulative_trapezoid(q, ta), _cumulative_trapezoid(rhs, ta))


def identity_series(traj_a, traj_b):
    """Evaluate the symmetric-entropy balance pieces at every snapshot.

    Velocities come from the snapshot fluxes with a small positivity floor;
    time integrals are cumulative trapezoids over the snapshot times.
    Trajectories must share snapshot times, grids and D.
    """
    return _identity_series(*_pair_columns(traj_a, traj_b))


@dataclass
class ErrorTerms:
    """The four cross-term functionals of the twin estimate at one instant.

    Each value comes with the certified upper bound built from the
    stability constants; ``s_dissipation`` and ``r_distance`` are the
    weighted velocity-difference and composition-distance integrals the
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

    d, dbar      -- shifted compositions (entries >= delta), shape (n, *cells)
    v, vbar      -- partial velocities, shape (n, dim, *cells)
    flux_bound   -- sup-norm bound on d_i v_i; measured from the fields if omitted

    Batch axes may sit before the cells; the values keep them, and a
    measured flux bound is the sup over the whole batch. The dissipation
    lower bound ``q_lower_bound`` additionally requires the velocity
    fields to satisfy the zero-sum constraint sum_i d_i v_i = 0.
    """
    d, dbar, v, vbar = (np.asarray(x, dtype=float) for x in (d, dbar, v, vbar))
    n = d.shape[0]
    if flux_bound is None:
        speed = lambda w, vel: np.sqrt(((w[:, None] * vel) ** 2).sum(axis=1)).max()
        flux_bound = max(speed(d, v), speed(dbar, vbar))
    k = stability_constants(D, delta, flux_bound)

    j1, j2, j3, j4, gap = _cross_terms(d, dbar, v, vbar, D.inv, delta, grid)
    s_val = integrate(gap.sum(axis=0), grid)
    r_val = integrate(((d - dbar) ** 2).sum(axis=0), grid)
    q_val = dissipation(d, dbar, v, vbar, D, grid)
    mu = k.mu
    bound_j12 = 0.25 * mu * s_val + (k.c1 / delta**2) * r_val
    bound_j3 = n * delta * k.big_m * s_val
    bound_j4 = (0.5 * mu + k.c2 * delta) * s_val + (k.c3 / delta**4) * r_val
    q_lower = mu * s_val - (2.0 * n * mu / delta**2) * flux_bound**2 * r_val

    return ErrorTerms(
        j1=j1, j2=j2, j3=j3, j4=j4,
        bound_j12=bound_j12, bound_j3=bound_j3, bound_j4=bound_j4,
        s_dissipation=s_val, r_distance=r_val, q_shifted=q_val, q_lower_bound=q_lower,
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
    and ``constants.admissible`` records the fact. ``diagnostics`` maps
    each per-snapshot column of the pair pass to its (S,) series: the
    CSV_COLUMNS, where F is ``regularized_entropy`` and the master
    inequality's sides are ``gronwall_lhs`` and ``gronwall_rhs``, and
    R (``r_distance``), S (``s_dissipation``), the balance's ``rhs`` and
    each snapshot's largest |J_i| (``sup_flux``).
    """

    holds_master: bool
    holds_envelope: bool
    constants: object
    diagnostics: dict

    @property
    def holds(self):
        return self.holds_master and self.holds_envelope


def gronwall_certificate(traj_a, traj_b, delta):
    """Certify the twin stability estimate numerically for two trajectories.

    The trajectories must share snapshot times, grids and D, whose
    stability constants the checks use. Velocities are recovered from the
    snapshot fluxes as v = J / (c + delta), which satisfies the shifted
    zero-sum constraint exactly. The flux bound is the measured sup of
    |J_i| over both trajectories. Both checks allow a slack of 1e-9: times
    max(1, |rhs|) in the master inequality; in the envelope, on a distance
    R and on the log-space comparison. The same pass evaluates the entropy
    identity and the cross terms j1..j4 that fill ``diagnostics``. A delta
    outside (0, 1), or one whose rate c5 / delta**4 overflows, raises
    DeltaOutOfRange.
    """
    ta, cols = _pair_columns(traj_a, traj_b, delta)
    f_series, r_series, s_series = (
        cols[key] for key in ("regularized_entropy", "r_distance", "s_dissipation"))
    k = stability_constants(traj_a.D, delta, float(cols["sup_flux"].max()))
    slack = 1e-9

    t0 = ta - ta[0]
    int_r = _cumulative_trapezoid(r_series, ta)
    int_s = _cumulative_trapezoid(s_series, ta)

    margin = 0.25 * k.mu - k.c4 * delta
    rate = k.c5 / delta**4
    if not math.isfinite(rate):
        raise DeltaOutOfRange(f"the certificate's rate c5 / delta**4 = {k.c5:.6g} / delta**4 overflows")
    master_lhs = f_series - f_series[0] + margin * int_s
    master_rhs = rate * int_r
    ref = np.maximum(np.abs(master_rhs), 1.0)
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

    cols.update(time=ta, identity_residual=_identity_series(ta, cols).residuals(),
                gronwall_lhs=master_lhs, gronwall_rhs=master_rhs)
    return GronwallReport(holds_master, holds_envelope, k, cols)


# the columns of the twin study's per-snapshot diagnostics table
CSV_COLUMNS = [
    "time", "entropy", "relative_entropy", "symmetrized_entropy", "regularized_entropy",
    "renorm_entropy", "dissipation", "identity_residual", "j1", "j2", "j3", "j4",
    "gronwall_lhs", "gronwall_rhs",
]
