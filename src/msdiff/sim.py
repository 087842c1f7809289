"""Finite-volume time integration of the multicomponent diffusion system.

Cell-centered compositions on a periodic grid; face compositions are
arithmetic means renormalized to the simplex, face gradients are exact
differences, and the pointwise force-flux solve runs vectorized over all
faces of an axis. The divergence telescopes, so species masses are
conserved to rounding and the zero-sum of the face solves keeps every
cell on the simplex. Explicit Euler is the default scheme with a Heun
toggle; the time step respects a parabolic stability bound.

One private step core, ``_advance``, holds the Euler and Heun arithmetic.
``step`` is its checked front for one state, and ``run`` loops over
``step``. ``run_lockstep`` steps several runs of one grid, D, scheme and
final time together, one face solve per stage for the members due, each
byte-equal to its own ``run`` but for residuals. A twin pair, a run and
its perturbed or refined twin, is a ``run_lockstep`` group of two (see
``suites.study_runs``), certified by ``entropy.gronwall_certificate``.

A run records states only: its steps make all its face solves. Every
reader of stored snapshots walks them in the blocks of one rule,
``_snapshot_blocks``, so no temporary grows with their count. Snapshot
fluxes are one face solve per block (``_snapshot_fluxes``), made by the
entropy pair pass (through ``_blockwise``) and ``weak_form_residual`` and
dropped with the block.

Scratch rule: a face divergence on a grid that this thread has already
seen allocates only its divergence, and a step writes its new state into
that divergence. The face fluxes, unless kept, other temporaries and the
kernel's are reused per-thread buffers for the latest shape
(``_scratch``) that no result views.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from ._scratch import scratch
from .flux import DiffusionMatrix, solve_fluxes_batch
from .grid import ConcentrationState, PeriodicGrid, _shift, gradient, integrate


# the most steps one run may take; Scenario.resolve_steps refuses more
MAX_STEPS = 10**7


class CflViolation(ValueError):
    """The requested time step exceeds the parabolic stability bound."""


class PositivityFailure(RuntimeError):
    """Clipping negative undershoots would move more mass than budgeted."""


def max_stable_dt(grid, D):
    """Parabolic step bound h^2 / (2 dim D_max) on the finest axis."""
    h = min(grid.spacing)
    try:
        return h**2 / (2.0 * grid.dim * D.d_max)
    except OverflowError:  # h^2 beyond the float range: no step limit
        return math.inf


def _face_divergence(c, D, grid, faces=None):
    """Assemble the conservative divergence of the face fluxes.

    c is (n, *members, *cells): the spatial axes are the last grid.dim,
    and any axes between the species and the cells stack members that are
    solved together. Returns (divergence of c's shape, max |face flux| per
    member (a scalar without member axes), max kernel residual). Face k
    of an axis lies between cells k and k+1. Each axis is one kernel call
    over every member's faces; the kernel holds each face to its own
    gradient scale, so stacking loosens no residual test, and at n <= 3 a
    member's results do not depend on what it is stacked with. The kernel
    gets transposed views of (n, m) species rows, and each face array
    views its output: no copies. The composition shift is reused as the
    gradient's buffer. The first axis's face difference is added to 0.0
    into a new array (turning -0.0 into +0.0, as a zero-filled buffer
    would), each later one to that sum in place.

    Other temporaries live in this thread's scratch for c.shape. Unless
    appended to a list faces, as fresh rows, each axis's faces are written
    into one (n, m) buffer of this thread's scratch (the kernel's out),
    which the next axis and the next call reuse; no result views it.
    """
    n, dim = c.shape[0], grid.dim
    right, face, total = scratch("face_divergence", c.shape, _divergence_scratch)
    rows = None if faces is not None else scratch(
        "face_fluxes", (n, c.size // n), lambda *shape: np.empty(shape))
    # |J| is reduced over the species and the cells, leaving the members
    red = (0,) + tuple(range(c.ndim - dim, c.ndim))
    div = 0.0
    fmax = 0.0
    residual = 0.0
    for k, h in enumerate(grid.spacing):
        ax = c.ndim - dim + k
        cR = _shift(c, -1, ax, out=right)
        cf = np.add(c, cR, out=face)
        cf *= 0.5
        cf /= cf.sum(axis=0, keepdims=True, out=total)
        g = np.subtract(cR, c, out=cR)
        g /= h
        J, res = solve_fluxes_batch(cf.reshape(n, -1).T, g.reshape(n, -1).T, D, out=rows)
        Jf = J.T.reshape(c.shape)
        if faces is not None:
            faces.append(Jf)
        # the kernel is done with the face compositions and the gradients
        fmax = np.maximum(fmax, np.abs(Jf, out=face).max(axis=red))
        residual = max(residual, res)
        diff = _shift(Jf, 1, ax, out=right)
        np.subtract(Jf, diff, out=diff)
        diff /= h
        div = np.add(div, diff, out=div if k else None)
    return div, fmax, residual


def _divergence_scratch(*shape):
    """Two state-sized buffers and one for the face compositions' column sum."""
    return np.empty(shape), np.empty(shape), np.empty((1,) + shape[1:])


def _cell_average(faces, out):
    """Cell-centered flux vectors by averaging face fluxes (n, *members,
    *cells), into out (n, dim, *members, *cells) of any strides."""
    for k, F in enumerate(faces):
        slot = _shift(F, 1, F.ndim - len(faces) + k, out=out[:, k])
        slot += F
    out *= 0.5
    return out


def _snapshot_fluxes(c, D, grid):
    """Cell-averaged fluxes of a block of snapshots c (n, S_b, *cells), one
    face divergence for all: a (n, dim, S_b, *cells) view of a fresh
    (S_b, n, dim, *cells) block. At n <= 3 snapshot k's slice is bit for
    bit the average of a face solve of it alone."""
    out = np.moveaxis(np.empty((c.shape[1], c.shape[0], grid.dim) + c.shape[2:]), 0, 2)
    faces = []
    _face_divergence(c, D, grid, faces)
    return _cell_average(faces, out)


# values in the largest temporary of one block of snapshots, so that
# batched memory does not grow with their count
_BLOCK_VALUES = 2**15


def _snapshot_blocks(states, grid):
    """Slices of a stack of states (S, n, *cells) into blocks of snapshots,
    at least one each: a block's largest temporary, n times its fluxes of
    n dim cells values a snapshot, holds at most _BLOCK_VALUES values."""
    per = max(1, _BLOCK_VALUES // (states.shape[1] * states[0].size * grid.dim))
    return [slice(lo, lo + per) for lo in range(0, len(states), per)]


def _blockwise(fn, grid, *stacks):
    """Evaluate fn over blocks of snapshots of stacks of states (S, n,
    *cells): fn gets each stack's block as a (n, S_b, *cells) view and
    returns a dict of (S_b,) arrays, each joined over blocks."""
    parts = [fn(*(np.moveaxis(a[block], 0, 1) for a in stacks))
             for block in _snapshot_blocks(stacks[0], grid)]
    return {key: np.concatenate([part[key] for part in parts]) for key in parts[0]}


def apply_positivity(c, cell_volume):
    """Clip negative undershoots and renormalize the affected cells.

    Undershoots down to -1e-12 are rounding noise and left alone. Returns
    (array, clipped mass); raises PositivityFailure beyond 1e-8 clipped mass.
    """
    if c.min() >= -1e-12:
        return c, 0.0
    clipped = np.maximum(c, 0.0)
    lost = float((clipped - c).sum() * cell_volume)
    if lost > 1e-8:
        raise PositivityFailure(
            f"positivity clipping would move {lost:.3e} mass, budget 1.0e-08"
        )
    mask = (c < 0.0).any(axis=0)
    clipped[:, mask] /= clipped[:, mask].sum(axis=0, keepdims=True)
    return clipped, lost


def _clip(c, grid):
    """apply_positivity on c (n, *cells), or member by member on a fresh
    stack (n, B, *cells), in place; returns (c, clipped mass per member)."""
    if c.ndim == 1 + grid.dim:
        return apply_positivity(c, grid.cell_volume)
    lost = np.zeros(c.shape[1])
    if c.min() < 0.0:
        for i in range(c.shape[1]):
            c[:, i], lost[i] = apply_positivity(c[:, i], grid.cell_volume)
    return c, lost


def _advance(c, D, grid, dt, scheme):
    """One explicit step of c, the step body of ``step`` and ``run_lockstep``.

    c is one state (n, *cells) with a scalar dt, or a stack (n, B, *cells)
    with dt a column that broadcasts against (B, *cells). Returns (new c,
    max |face flux| and clipped mass, per member for a stack, and the
    largest kernel residual of the step's face solves). The new c is
    computed into the fresh divergence, bit for bit c - dt * div or
    c - 0.5 * dt * (div + div2).
    """
    div, fmax, residual = _face_divergence(c, D, grid)
    if scheme == "euler":
        rate, clipped = dt, 0.0
    elif scheme == "heun":
        c_pred = dt * div
        c_pred, clipped = _clip(np.subtract(c, c_pred, out=c_pred), grid)
        div2, fmax2, residual2 = _face_divergence(c_pred, D, grid)
        fmax = np.maximum(fmax, fmax2)
        residual = max(residual, residual2)
        div += div2
        rate = 0.5 * dt
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    div *= rate
    c_new, lost = _clip(np.subtract(c, div, out=div), grid)
    return c_new, fmax, clipped + lost, residual


@dataclass
class StepInfo:
    flux_max: float
    clipped_mass: float
    residual: float


def _check_stable(dt, grid, D):
    cap = max_stable_dt(grid, D)
    if dt > cap * (1.0 + 1e-9):
        raise CflViolation(f"dt={dt:.3e} exceeds stability bound {cap:.3e}")


def step(state, D, dt, scheme="euler"):
    """Advance one explicit step; returns (new state, StepInfo)."""
    grid = state.grid
    _check_stable(dt, grid, D)
    c_new, fmax, clipped, residual = _advance(state.c, D, grid, dt, scheme)
    return (
        ConcentrationState(grid, c_new, state.time + dt),
        StepInfo(flux_max=float(fmax), clipped_mass=clipped, residual=residual),
    )


@dataclass
class Perturbation:
    """Mass-neutral initial perturbation: the wave amplitude sin(2 pi mode x / L)
    along axis 0, added to the first of two species and taken from the second."""

    amplitude: float
    mode: int = 1
    species: tuple = (0, 1)

    def apply(self, state):
        grid = state.grid
        x = grid.axes()[0]
        wave = self.amplitude * np.sin(
            2.0 * math.pi * self.mode * x / grid.lengths[0]
        ).reshape((-1,) + (1,) * (grid.dim - 1))
        c = state.c.copy()
        i, j = self.species
        c[i] = c[i] + wave
        c[j] = c[j] - wave
        out = ConcentrationState(grid, c, state.time)
        out.validate()
        return out


@dataclass
class Scenario:
    """Everything needed to reproduce one simulation run."""

    n: int
    D: DiffusionMatrix
    grid: PeriodicGrid
    t_final: float
    preset: str = "sine_mix"
    amplitude: float = 0.2
    mode: int = 1
    weights: np.ndarray = None
    dt: float = None
    cfl: float = 0.25
    scheme: str = "euler"
    delta: float = 0.05
    cadence: int = 1
    perturbation: Perturbation = None

    def __post_init__(self):
        if self.n != self.D.n:
            raise ValueError(f"scenario has {self.n} species but D has {self.D.n}")
        if self.t_final <= 0.0:
            raise ValueError("t_final must be positive")
        if not 0.0 < self.cfl <= 1.0:
            raise ValueError(f"cfl must lie in (0, 1], got {self.cfl}")
        if self.scheme not in ("euler", "heun"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.cadence < 1:
            raise ValueError("cadence must be a positive step count")

    def resolve_steps(self):
        """Concrete (dt, step count) for this run: the one step rule.

        An explicit dt must divide t_final and respect the stability bound;
        otherwise dt is the largest step of at most cfl times the bound that
        divides t_final. More than MAX_STEPS steps are refused.
        """
        target = self.dt
        if target is None:
            target = self.cfl * max_stable_dt(self.grid, self.D)
            if not target > 0.0:
                raise ValueError(f"stability bound {target:.3e} is not positive")
        ratio = self.t_final / target
        if ratio > MAX_STEPS:
            raise ValueError(f"the run needs {ratio:.3e} steps, more than {MAX_STEPS}")
        if self.dt is None:
            steps = max(1, int(math.ceil(ratio - 1e-12)))
            return self.t_final / steps, steps
        steps = round(ratio)
        if steps < 1 or abs(steps * self.dt - self.t_final) > 1e-9 * self.t_final:
            raise ValueError(f"dt={self.dt} does not divide t_final={self.t_final}")
        _check_stable(self.dt, self.grid, self.D)
        return float(self.dt), int(steps)

    def initial_state(self):
        c = _build_preset(self)
        state = ConcentrationState(self.grid, c, 0.0)
        if self.perturbation is not None:
            state = self.perturbation.apply(state)
        state.validate()
        return state

    def refine(self, factor=2):
        """Halve the mesh width; an explicit dt is scaled parabolically."""
        new_dt = self.dt / factor**2 if self.dt is not None else None
        new_cad = self.cadence * factor**2 if self.dt is not None else self.cadence
        return replace(self, grid=self.grid.refine(factor), dt=new_dt, cadence=new_cad)


def _build_preset(sc):
    grid, n = sc.grid, sc.n
    w = np.full(n, 1.0 / n) if sc.weights is None else np.asarray(sc.weights, float)
    if w.size != n or np.any(w <= 0.0):
        raise ValueError("weights must be positive, one per species")
    w = w / w.sum()
    X = grid.meshgrid()
    if sc.preset == "uniform":
        c = np.broadcast_to(w.reshape((n,) + (1,) * grid.dim), (n,) + grid.cells).copy()
        return c
    if sc.preset == "binary_mode":
        if n != 2:
            raise ValueError("binary_mode needs exactly two species")
        base = w[0]
        if not sc.amplitude < min(base, 1.0 - base):
            raise ValueError("amplitude pushes the binary profile out of (0, 1)")
        wave = sc.amplitude * np.cos(2.0 * math.pi * sc.mode * X[0] / grid.lengths[0])
        return np.stack([base + wave, 1.0 - base - wave])
    if sc.preset == "sine_mix":
        if not 0.0 <= sc.amplitude < 1.0:
            raise ValueError("sine_mix amplitude must lie in [0, 1)")
        g = np.empty((n,) + grid.cells)
        for i in range(n):
            phase = 2.0 * math.pi * i / n
            s = np.sin(2.0 * math.pi * (sc.mode + i) * X[0] / grid.lengths[0] + phase)
            if grid.dim >= 2:
                s = 0.5 * s + 0.5 * np.sin(
                    2.0 * math.pi * (sc.mode + i) * X[1] / grid.lengths[1] - phase
                )
            g[i] = w[i] * (1.0 + sc.amplitude * s)
        return g / g.sum(axis=0, keepdims=True)
    raise ValueError(f"unknown preset {sc.preset!r}")


@dataclass
class Trajectory:
    """Recorded snapshots of one run, plus per-step scalar series.

    Snapshot k sits in slot k of ``states``, (S, n, *cells); index,
    iterate or call ``state(k)`` to read one. ``D`` is the run's own, with
    which the pair pass and the weak form solve the snapshot fluxes per
    block and keep none.

    Entry k of flux_inf_series, clipped_series and residual_series, the
    float64 rows of one (3, steps + 1) block, belongs to step k, at time
    ``step_times[k]`` = k dt: its largest |face flux|, its clipped mass,
    and the largest force-flux kernel residual of its face solves (for a
    ``run_lockstep`` member, of the solves it shared). Entry 0, the
    initial state, is zero in all three. Every snapshot but the last was
    held to the kernel's residual test as its next step's first stage;
    the last is held to it by each reader of the snapshot fluxes.
    """

    grid: PeriodicGrid
    states: np.ndarray
    D: DiffusionMatrix
    times: list = field(default_factory=list)
    flux_inf_series: np.ndarray = field(default_factory=lambda: np.zeros(0))
    clipped_series: np.ndarray = field(default_factory=lambda: np.zeros(0))
    residual_series: np.ndarray = field(default_factory=lambda: np.zeros(0))
    dt: float = 0.0
    scheme: str = "euler"

    @property
    def n(self):
        return self.states.shape[1]

    def state(self, k):
        return ConcentrationState(self.grid, self.states[k], float(self.times[k]))

    @property
    def entropy_series(self):
        """The mixing entropy of each snapshot, evaluated over blocks of
        ``states``; bit for bit ``entropy(self.state(k))`` for every k."""
        from .entropy import _mixing_entropy

        cols = _blockwise(lambda c: {"entropy": _mixing_entropy(c, self.grid)}, self.grid, self.states)
        return cols["entropy"].tolist()

    @property
    def step_times(self):
        return np.arange(len(self.flux_inf_series)) * self.dt

    @property
    def flux_inf(self):
        return float(max(self.flux_inf_series, default=0.0))

    @property
    def clipped_total(self):
        return float(sum(self.clipped_series))

    def species_mass_drift(self):
        first = integrate(self.states[0], self.grid)
        last = integrate(self.states[-1], self.grid)
        return float(np.abs(last - first).max())

    def simplex_defect(self):
        return max(
            float(np.abs(c.sum(axis=0) - 1.0).max()) for c in self.states
        )


def _trajectory(scenario, dt, steps, n):
    """An empty Trajectory for a run of ``steps`` steps of size dt, with
    room for the S = 1 + ceil(steps / cadence) snapshots."""
    grid = scenario.grid
    lead = (1 + -(-steps // scenario.cadence), n)
    return Trajectory(grid, np.empty(lead + grid.cells), scenario.D, [],
                      *np.zeros((3, steps + 1)), dt=dt, scheme=scenario.scheme)


def _record(traj, t, c):
    """Append snapshot (t, c) to traj."""
    traj.states[len(traj.times)] = c
    traj.times.append(t)


def run(scenario):
    """Integrate a scenario, recording snapshots every ``cadence`` steps.

    The S = 1 + ceil(steps / cadence) snapshots (the initial state, every
    cadence-th step and the last) fill a stack of states, and the steps'
    records their (3, steps + 1) block, both allocated up front and
    written in place. The run solves no face of a snapshot (see
    ``Trajectory``). Deterministic. Each step goes through ``step``;
    ``run_lockstep`` is the stacked loop.
    """
    dt, steps = scenario.resolve_steps()
    state = scenario.initial_state()
    traj = _trajectory(scenario, dt, steps, state.n)
    _record(traj, state.time, state.c)

    for k in range(1, steps + 1):
        state, info = step(state, scenario.D, dt, scheme=scenario.scheme)
        state.time = k * dt
        traj.flux_inf_series.base[:, k] = info.flux_max, info.clipped_mass, info.residual
        if k % scenario.cadence == 0 or k == steps:
            _record(traj, state.time, state.c)
    return traj


def _lockstep_plan(scenarios):
    """Check that scenarios can step together and order them: returns the
    member order, each member's (dt, steps) and step ratio S / steps, and
    the tick count S. Raises ValueError for an empty list, a mismatched n,
    grid, D, scheme or t_final, or step ratios that do not divide one
    another once sorted."""
    if not scenarios:
        raise ValueError("run_lockstep needs at least one scenario")
    first = scenarios[0]
    for sc in scenarios[1:]:
        for key, same in (("n", sc.n == first.n), ("grid", sc.grid == first.grid),
                          ("D", np.array_equal(sc.D.d, first.D.d)),
                          ("scheme", sc.scheme == first.scheme),
                          ("t_final", sc.t_final == first.t_final)):
            if not same:
                raise ValueError(f"lockstep runs must share {key}")
    plans = [sc.resolve_steps() for sc in scenarios]
    ticks = max(steps for _, steps in plans)
    if any(ticks % steps for _, steps in plans):
        raise ValueError(f"step counts {[s for _, s in plans]} do not all divide {ticks}")
    order = sorted(range(len(scenarios)), key=lambda i: ticks // plans[i][1])
    ratios = [ticks // plans[i][1] for i in order]
    if any(b % a for a, b in zip(ratios, ratios[1:])):
        raise ValueError(f"step ratios {ratios} do not divide one another")
    return order, [plans[i] for i in order], ratios, ticks


def run_lockstep(scenarios):
    """Run scenarios of one grid, D, scheme and t_final together; returns
    their Trajectories in the order given.

    Member i takes s_i steps; with S the largest, it steps at every tick j
    of 1..S that its ratio r_i = S / s_i divides. The members are stacked
    as (n, B, *cells) in order of r_i; when the sorted ratios divide one
    another (a twin ladder of halved steps, or runs of one dt), the members
    due at a tick are a prefix of the stack, and each Heun or Euler stage
    makes one face solve for the whole prefix, with dt a broadcast column.
    A member due writes its step's records into its own block, and copies
    its state into its own Trajectory when due to record, solving nothing
    for it, as in ``run``. Anything else raises ValueError (see
    ``_lockstep_plan``).

    Each member's states, times, step times, flux and clipping series, and
    so its entropy series and any pair or weak-form reading of its states,
    are byte-equal to ``run`` of it alone. Its residual series holds the
    largest kernel residual of each tick's shared solves, so every entry
    is at least its own.
    """
    order, plans, ratios, ticks = _lockstep_plan(scenarios)
    members = [scenarios[i] for i in order]
    D, grid, scheme = members[0].D, members[0].grid, members[0].scheme
    X = np.stack([sc.initial_state().c for sc in members], axis=1)
    trajs = [_trajectory(sc, dt, steps, X.shape[0]) for sc, (dt, steps) in zip(members, plans)]
    dts = np.array([dt for dt, _ in plans]).reshape((-1,) + (1,) * grid.dim)
    for i, traj in enumerate(trajs):
        _record(traj, 0.0, X[:, i])

    for j in range(1, ticks + 1):
        b = 1
        while b < len(ratios) and j % ratios[b] == 0:
            b += 1
        X[:, :b], fmax, clipped, residual = _advance(X[:, :b], D, grid, dts[:b], scheme)
        for i in range(b):
            traj, (dt, steps), k = trajs[i], plans[i], j // ratios[i]
            traj.flux_inf_series.base[:, k] = fmax[i], clipped[i], residual
            if k % members[i].cadence == 0 or k == steps:
                _record(traj, k * dt, X[:, i])
    out = [None] * len(trajs)
    for i, traj in zip(order, trajs):
        out[i] = traj
    return out


def exact_binary_mode(grid, d12, amplitude, mode, t):
    """Closed-form two-species solution: one cosine mode along axis 0 about 0.5.

    The two-species force balance reduces exactly to a linear diffusion
    equation for the first component, so the profile decays by
    exp(-D (2 pi mode / L)^2 t) with no shape change at any amplitude.
    """
    X = grid.meshgrid()
    L = grid.lengths[0]
    lam = d12 * (2.0 * math.pi * mode / L) ** 2
    wave = amplitude * np.cos(2.0 * math.pi * mode * X[0] / L) * math.exp(-lam * t)
    return ConcentrationState(grid, np.stack([0.5 + wave, 0.5 - wave]), t)


@dataclass
class GridTestFunction:
    """Smooth space-time test function sampled on a grid's cell centers.

    value/dt return (*cells) arrays, grad returns (dim, *cells); all are
    functions of time. Compact support in time is the caller's business.
    """

    value: callable
    dt: callable
    grad: callable


def bump_test_function(grid, t_lo, t_hi):
    """Periodic-in-space, bump-in-time test function with analytic derivatives.

    Space factor: product over axes k of (1 + 0.5 sin(2 pi x_k / L_k + 0.3 + 0.4 k)).
    Time factor: the standard C-infinity bump rescaled to (t_lo, t_hi); it
    vanishes with all derivatives at both ends. t_lo may be negative, which
    leaves the function active at time zero.
    """
    X = grid.meshgrid()
    factors = []
    dfactors = []
    for k in range(grid.dim):
        arg = 2.0 * math.pi * X[k] / grid.lengths[k] + (0.3 + 0.4 * k)
        factors.append(1.0 + 0.5 * np.sin(arg))
        dfactors.append(0.5 * np.cos(arg) * 2.0 * math.pi / grid.lengths[k])
    space = np.prod(factors, axis=0)
    grad_space = np.stack(
        [
            dfactors[k] * np.prod([factors[j] for j in range(grid.dim) if j != k] or [np.ones_like(space)], axis=0)
            for k in range(grid.dim)
        ]
    )

    half = 0.5 * (t_hi - t_lo)
    mid = 0.5 * (t_hi + t_lo)

    def w(t):
        s = (t - mid) / half
        if abs(s) >= 1.0:
            return 0.0
        return math.exp(-1.0 / (1.0 - s * s))

    def dw(t):
        s = (t - mid) / half
        if abs(s) >= 1.0:
            return 0.0
        val = math.exp(-1.0 / (1.0 - s * s))
        return val * (-2.0 * s / (1.0 - s * s) ** 2) / half

    return GridTestFunction(
        value=lambda t: space * w(t),
        dt=lambda t: space * dw(t),
        grad=lambda t: grad_space * w(t),
    )


def weak_form_residual(traj, beta, phi):
    """Defect of the renormalized weak form along a recorded trajectory.

    Evaluates, per species,
        int beta(c0) phi(0) + int dt [ int beta(c) phi_t
            + beta'(c) (c u) . grad phi + beta''(c) ((c u) . grad c) phi ]
    with the entropy layer's trapezoid rule (``_cumulative_trapezoid``)
    over the recorded snapshots, whose fluxes are solved per block and
    dropped. The test function must vanish at the final recorded time.
    Returns one residual per species; all tend to zero under mesh
    refinement for solutions of the divergence-form system.
    """
    from .entropy import _cumulative_trapezoid

    grid = traj.grid
    times = np.asarray(traj.times, dtype=float)
    if float(np.max(np.abs(phi.value(times[-1])))) > 1e-14:
        raise ValueError("test function must vanish at the final snapshot time")
    rows = []
    for block in _snapshot_blocks(traj.states, grid):
        states = traj.states[block]
        fluxes = np.moveaxis(_snapshot_fluxes(np.moveaxis(states, 0, 1), traj.D, grid), 2, 0)
        for t, c, J in zip(times[block], states, fluxes):
            pv, pt, pg = phi.value(t), phi.dt(t), phi.grad(t)
            gc = gradient(c, grid)
            term_t = integrate(beta.f(c) * pt, grid)
            term_adv = integrate((beta.df(c)[:, None] * J * pg[None]).sum(axis=1), grid)
            term_curv = integrate(beta.d2f(c) * (J * gc).sum(axis=1) * pv, grid)
            rows.append(term_t + term_adv + term_curv)
    bulk = _cumulative_trapezoid(np.asarray(rows), times)[-1]
    initial = integrate(beta.f(traj.states[0]) * phi.value(times[0]), grid)
    return np.abs(initial + bulk)
