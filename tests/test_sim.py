"""Time integration: conservation, stability guards, twins, weak forms."""

import importlib
import math
import sys
import threading
import tracemalloc
import typing
from dataclasses import replace

import numpy as np
import pytest

from msdiff import sim
from msdiff.entropy import (
    _cumulative_trapezoid, entropy, gronwall_certificate, identity_renorm, identity_series,
    log_shift_renorm)
from msdiff.flux import DiffusionMatrix, SingularComposition, solve_fluxes_batch
from msdiff.grid import ConcentrationState, PeriodicGrid, gradient, integrate, l2_norm
from msdiff.mollify import fit_loglog
from msdiff.sim import (
    MAX_STEPS,
    CflViolation,
    Perturbation,
    PositivityFailure,
    Scenario,
    apply_positivity,
    bump_test_function,
    exact_binary_mode,
    max_stable_dt,
    run,
    run_lockstep,
    step,
    weak_form_residual,
)
from snapshot_reference import divergence_and_faces, fresh_snapshot_fluxes
from test_lockstep import edge_case, ladder

D2 = DiffusionMatrix.uniform(2, 1.5)
D3 = DiffusionMatrix([[0.0, 1.0, 2.0], [1.0, 0.0, 3.0], [2.0, 3.0, 0.0]])


def test_uniform_mixture_is_a_fixed_point():
    sc = Scenario(n=3, D=D3, grid=PeriodicGrid((16,)), t_final=0.001,
                  preset="uniform", cadence=1)
    traj = run(sc)
    assert len(traj.states) >= 3
    for c in traj.states[1:]:
        assert np.array_equal(c, traj.states[0])
    assert traj.flux_inf == 0.0
    assert traj.clipped_total == 0.0


def test_binary_mode_matches_exact_solution():
    grid = PeriodicGrid((64,))
    sc = Scenario(n=2, D=D2, grid=grid, t_final=0.01, preset="binary_mode",
                  amplitude=0.3)
    traj = run(sc)
    exact = exact_binary_mode(grid, 1.5, 0.3, 1, 0.01)
    rel = l2_norm(traj.states[-1] - exact.c, grid) / l2_norm(exact.c, grid)
    assert rel < 1e-4
    # the mode amplitude decays at the closed-form rate
    amp = np.abs(traj.states[-1][0] - 0.5).max()
    lam = 1.5 * (2 * math.pi) ** 2
    assert abs(amp / (0.3 * math.exp(-lam * 0.01)) - 1.0) < 0.01


def test_exact_binary_mode_at_time_zero_is_the_preset():
    grid = PeriodicGrid((32,))
    sc = Scenario(n=2, D=D2, grid=grid, t_final=1.0, preset="binary_mode",
                  amplitude=0.25, mode=2)
    assert np.array_equal(sc.initial_state().c, exact_binary_mode(grid, 1.5, 0.25, 2, 0.0).c)


def test_conservation_and_simplex():
    sc = Scenario(n=3, D=D3, grid=PeriodicGrid((32,)), t_final=0.005,
                  amplitude=0.4)
    traj = run(sc)
    assert traj.species_mass_drift() < 1e-12
    assert traj.simplex_defect() < 1e-12


def test_entropy_series_never_increases():
    sc = Scenario(n=3, D=D3, grid=PeriodicGrid((32,)), t_final=0.005,
                  amplitude=0.4)
    traj = run(sc)
    assert len(traj.entropy_series) == len(traj.step_times)
    assert np.diff(traj.entropy_series).max() <= 1e-10


@pytest.mark.parametrize("block", [None, 7])
@pytest.mark.parametrize("cells", [(16,), (6, 5)])
def test_entropy_series_equals_the_entropy_of_each_state(monkeypatch, cells, block):
    if block is not None:  # 7 n dim cells values: blocks of two snapshots of n^2 dim cells
        monkeypatch.setattr(sim, "_BLOCK_VALUES", block * 3 * len(cells) * math.prod(cells))
    sc = Scenario(n=3, D=D3, grid=PeriodicGrid(cells), t_final=0.002, amplitude=0.4,
                  scheme="heun", cadence=1)
    dense = run(sc)
    assert len(dense.entropy_series) == len(dense.states) > 3
    steps = len(dense.step_times) - 1
    # sparse cadences, and lockstep members with mixed cadences
    trajs = [dense] + [run(replace(sc, cadence=c)) for c in (3, steps)]
    for traj in trajs + run_lockstep(ladder(sc.grid, sc.scheme)):
        assert len(traj.entropy_series) == len(traj.times) == len(traj.states)
        assert traj.entropy_series == [entropy(traj.state(k)) for k in range(len(traj.states))]


def test_runs_evaluate_no_entropy_until_it_is_read(monkeypatch):
    entropy_module = importlib.import_module("msdiff.entropy")
    calls = []
    real = entropy_module._mixing_entropy

    def counted(c, grid):
        calls.append(c.shape)
        return real(c, grid)

    monkeypatch.setattr(entropy_module, "_mixing_entropy", counted)
    members = ladder(PeriodicGrid((16,)), "euler")
    trajs = [run(members[0])] + run_lockstep(members)
    assert calls == []
    for traj in trajs:
        assert len(traj.entropy_series) == len(traj.times)
    assert calls


def test_runs_are_deterministic():
    sc = Scenario(n=3, D=D3, grid=PeriodicGrid((24,)), t_final=0.002, cadence=4)
    a, b = run(sc), run(sc)
    assert a.times == b.times
    for ca, cb in zip(a.states, b.states):
        assert np.array_equal(ca, cb)
    assert a.entropy_series == b.entropy_series


def test_one_block_rule_serves_every_snapshot_reader(monkeypatch):
    # only sim's block size is patched: blocks of three snapshots, the last
    # partial, read from the snapshot axis of each face solve
    sc = Scenario(n=3, D=D3, grid=PeriodicGrid((24,)), t_final=0.002, amplitude=0.4)
    base, twin = run_lockstep(
        [sc, replace(sc, perturbation=Perturbation(amplitude=1e-3, mode=1))])
    S = len(base.states)
    assert S > 3 and S % 3
    blocks = [min(3, S - lo) for lo in range(0, S, 3)]
    monkeypatch.setattr(sim, "_BLOCK_VALUES", 3 * 9 * math.prod(sc.grid.cells))
    calls = []
    real = sim._face_divergence

    def counted(c, D, grid, *rest):
        calls.append(c.shape[1])
        return real(c, D, grid, *rest)

    monkeypatch.setattr(sim, "_face_divergence", counted)
    gronwall_certificate(base, twin, sc.delta)
    assert calls == [size for size in blocks for _ in (base, twin)]
    calls.clear()
    weak_form_residual(base, identity_renorm(), bump_test_function(sc.grid, -1.0, base.times[-1]))
    assert calls == blocks


def _block_fluxes(traj):
    """(S, n, dim, *cells): the snapshot fluxes as the pair pass and the
    weak form solve them, ``_snapshot_fluxes`` over ``_snapshot_blocks``."""
    return np.concatenate([
        np.moveaxis(sim._snapshot_fluxes(np.moveaxis(traj.states[block], 0, 1), traj.D, traj.grid), 2, 0)
        for block in sim._snapshot_blocks(traj.states, traj.grid)])


def _blocks_of(monkeypatch, per, n, grid):
    """Make every reader of stored snapshots take per snapshots a block."""
    monkeypatch.setattr(sim, "_BLOCK_VALUES", per * n * n * grid.dim * math.prod(grid.cells))


@pytest.mark.parametrize("scheme", ["euler", "heun"])
@pytest.mark.parametrize("cadence", [1, 3, "steps"])
def test_snapshot_fluxes_equal_a_fresh_solve(monkeypatch, scheme, cadence):
    for n, D, cells in [(3, D3, (12, 10)), (2, D2, (12, 10)), (3, D3, (24,)), (2, D2, (24,))]:
        sc = Scenario(n=n, D=D, grid=PeriodicGrid(cells), t_final=0.002,
                      amplitude=0.4, scheme=scheme)
        steps = sc.resolve_steps()[1]
        sc = replace(sc, cadence=steps if cadence == "steps" else cadence)
        for several in (False, True):
            traj = run(sc)
            S = len(traj.states)
            with monkeypatch.context() as patch:
                if several:  # blocks that leave the last one partial; of 1 for S = 2
                    per = next(p for p in (3, 4, 5) if S % p) if S > 2 else 1
                    _blocks_of(patch, per, n, sc.grid)
                J = _block_fluxes(traj)
            assert J.shape == (S, n, len(cells)) + cells
            for got, fresh in zip(J, fresh_snapshot_fluxes(traj)):
                assert got.tobytes() == fresh.tobytes()


def test_snapshot_fluxes_at_four_species_agree_with_a_fresh_solve(monkeypatch):
    # at n >= 4 the kernel's K c product may round with the batch size, so
    # a stacked read is held to 1e-14 relative, not bit equality; the gap
    # observed here, and for n = 4..6 on 1-D and 2-D grids, was 0
    n, grid = 4, PeriodicGrid((12, 10))
    rng = np.random.default_rng(11)
    d = np.triu(rng.uniform(0.5, 4.0, size=(n, n)), 1)
    D = DiffusionMatrix(d + d.T)
    _blocks_of(monkeypatch, 3, n, grid)
    traj = run(Scenario(n=n, D=D, grid=grid, t_final=0.002, amplitude=0.4, scheme="heun"))
    assert len(traj.states) % 3
    for J, fresh in zip(_block_fluxes(traj), fresh_snapshot_fluxes(traj)):
        assert np.abs(J - fresh).max() <= 1e-14 * np.abs(fresh).max()


def test_only_a_flux_read_solves_faces_after_a_run(monkeypatch):
    members = ladder(PeriodicGrid((12, 10)), "heun")
    trajs = [run(members[0])] + run_lockstep(members)

    def refuse(c, D, grid, *rest):
        raise AssertionError("face solve after the run")

    monkeypatch.setattr(sim, "_face_divergence", refuse)
    for traj in trajs:
        assert len(traj.states) == len(traj.times) == len(traj.entropy_series)
        assert len(traj.flux_inf_series) == len(traj.step_times)
        assert [traj.state(k).time for k in range(len(traj.times))] == traj.times
        with pytest.raises(AssertionError, match="face solve after the run"):
            gronwall_certificate(traj, traj, 0.05)


def test_a_degenerate_last_snapshot_fails_on_the_flux_read():
    # a run gates every snapshot but the last as its next step's first
    # stage; the last one is gated by every reader of the snapshot fluxes
    grid = PeriodicGrid((8,))
    good = np.full((3, 8), 1.0 / 3.0)
    bad = good.copy()
    bad[:, 3:5] = 0.0  # two empty cells: their face composition is 0 / 0
    traj = sim.Trajectory(grid, np.stack([good, good, bad]), D3, times=[0.0, 1.0, 2.0])
    assert len(traj.entropy_series) == 3
    readers = [lambda: identity_series(traj, traj),
               lambda: gronwall_certificate(traj, traj, 0.05),
               lambda: weak_form_residual(traj, identity_renorm(), bump_test_function(grid, -1.0, 2.0))]
    for read in readers:
        with np.errstate(invalid="ignore"), pytest.raises(SingularComposition):
            read()


def _face_divergence_reference(c, D, grid):
    """Per-axis face divergence that hands the kernel C-ordered (m, n) copies
    of each face batch: the layout before the kernel read species rows."""
    n = c.shape[0]
    div = np.zeros_like(c)
    faces = []
    fmax = 0.0
    residual = 0.0
    for k, h in enumerate(grid.spacing):
        ax = 1 + k
        cR = np.roll(c, -1, axis=ax)
        cf = 0.5 * (c + cR)
        cf = cf / cf.sum(axis=0, keepdims=True)
        g = (cR - c) / h
        m = cf[0].size
        J, res = solve_fluxes_batch(
            cf.reshape(n, m).T.copy(), g.reshape(n, m).T.copy(), D
        )
        Jf = J.T.reshape(c.shape)
        faces.append(Jf)
        div += (Jf - np.roll(Jf, 1, axis=ax)) / h
        fmax = max(fmax, float(np.abs(Jf).max()))
        residual = max(residual, res)
    return div, faces, fmax, residual


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("cells", [(24,), (12, 10), (6, 5, 4)])
def test_face_divergence_matches_reference_without_copies(monkeypatch, n, cells):
    rng = np.random.default_rng(sum(cells) + n)
    d = np.triu(rng.uniform(0.5, 4.0, size=(n, n)), 1)
    D = DiffusionMatrix(d + d.T)
    grid = PeriodicGrid(cells, lengths=tuple(1.0 + 0.5 * k for k in range(len(cells))))
    c = rng.uniform(0.05, 1.0, size=(n, *cells))
    c /= c.sum(axis=0, keepdims=True)

    div, faces, fmax, residual = _face_divergence_reference(c, D, grid)
    seen = []

    def recording(cf, g, D, out=None):
        J, res = solve_fluxes_batch(cf, g, D, out=out)
        seen.append((cf, g, J, out))
        return J, res

    monkeypatch.setattr(sim, "solve_fluxes_batch", recording)
    new_div, new_faces, new_fmax, new_residual = divergence_and_faces(c, D, grid)
    assert new_div.tobytes() == div.tobytes()
    assert [F.tobytes() for F in new_faces] == [F.tobytes() for F in faces]
    assert new_fmax == fmax and new_residual == residual
    # one kernel call per axis, fed species rows, and kept faces that are
    # its fresh output
    assert len(seen) == grid.dim
    for (cf, g, J, out), F in zip(seen, new_faces):
        assert cf.T.flags.c_contiguous and g.T.flags.c_contiguous
        assert out is None and np.shares_memory(F, J)
    # without the faces kept, the same divergence, flux bound and residual,
    # with every axis's fluxes written into one reused buffer
    plain = sim._face_divergence(c, D, grid)
    assert plain[0].tobytes() == div.tobytes() and plain[1:] == (fmax, residual)
    assert len(seen) == 2 * grid.dim
    buffers = [out for _, _, _, out in seen[grid.dim:]]
    assert all(out is buffers[0] for out in buffers) and buffers[0].shape == (n, c[0].size)
    assert all(np.shares_memory(J, out) for _, _, J, out in seen[grid.dim:])
    assert not np.shares_memory(plain[0], buffers[0])


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("cells", [(6,), (4, 3)])
def test_face_divergence_keeps_the_zero_filled_sign_of_zero(monkeypatch, n, cells):
    # face fluxes of +0.0 and -0.0: where a face holds -0.0 and its left
    # neighbour +0.0, the first axis's difference is -0.0, and a zero-filled
    # sum turns that into 0.0 + (-0.0) = +0.0
    rng = np.random.default_rng(n + len(cells))
    grid = PeriodicGrid(cells)
    c = np.full((n, *cells), 1.0 / n)
    m = math.prod(cells)

    def signed_zeros(cf, g, D, out=None):
        J = np.where(rng.uniform(size=(n, m)) < 0.5, -0.0, 0.0)
        if out is not None:
            out[...] = J
        return (J if out is None else out).T, 0.0

    monkeypatch.setattr(sim, "solve_fluxes_batch", signed_zeros)
    div = sim._face_divergence(c, D3 if n == 3 else D2, grid)[0]
    rng = np.random.default_rng(n + len(cells))  # the same face fluxes again
    monkeypatch.setitem(globals(), "solve_fluxes_batch", signed_zeros)
    ref, faces, _, _ = _face_divergence_reference(c, D3 if n == 3 else D2, grid)
    first = faces[0] - np.roll(faces[0], 1, axis=1)
    assert np.any(np.signbit(first))  # the -0.0 case occurs
    assert div.tobytes() == ref.tobytes()
    assert not np.any(np.signbit(div))


def _random_state(rng, n, cells):
    c = rng.uniform(0.05, 1.0, size=(n, *cells))
    return c / c.sum(axis=0, keepdims=True)


def _warm_peak(fn, *args):
    """tracemalloc peak of fn(*args) above what was held before, after one
    untraced call that leaves the scratch for its shapes in place."""
    fn(*args)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


# numpy's ufunc buffers and small objects weigh up to 0.7 of a state on the
# small grids and under 0.01 of one at 128^2, where the bounds are a state
# tighter
_TIGHTER = {(128,): 0.0, (64, 64): 0.0, (128, 128): 1.0}


@pytest.mark.parametrize("cells", [(128,), (64, 64), (128, 128)])
def test_face_divergence_allocates_little_beyond_its_outputs(cells):
    # on a grid seen before, a call allocates only its divergence, or with
    # the faces kept also every axis's fluxes; the fluxes that it drops and
    # every other temporary are reused scratch
    grid = PeriodicGrid(cells)
    c = _random_state(np.random.default_rng(len(cells)), 3, cells)
    assert _warm_peak(sim._face_divergence, c, D3, grid) <= (2.5 - _TIGHTER[cells]) * c.nbytes
    assert _warm_peak(divergence_and_faces, c, D3, grid) <= (grid.dim + 1.5) * c.nbytes


@pytest.mark.parametrize("scheme,bound", [("euler", 2.5), ("heun", 4.5)])
@pytest.mark.parametrize("cells", [(128,), (64, 64), (128, 128)])
def test_a_warm_step_allocates_little_beyond_its_new_state(scheme, bound, cells):
    # Euler: the divergence, which becomes the new state; Heun adds its
    # predictor and second divergence; the face fluxes are reused scratch
    grid = PeriodicGrid(cells)
    state = ConcentrationState(grid, _random_state(np.random.default_rng(len(cells)), 3, cells), 0.0)
    dt = 0.5 * max_stable_dt(grid, D3)
    assert _warm_peak(step, state, D3, dt, scheme) <= (bound - _TIGHTER[cells]) * state.c.nbytes


@pytest.mark.parametrize("scheme", ["euler", "heun"])
def test_a_one_cell_grid_steps_as_with_fresh_fluxes(monkeypatch, scheme):
    # one face: the kernel solves the point as a pair and writes the pair's
    # first column into the (n, 1) buffer
    grid = PeriodicGrid((1,))
    sc = Scenario(n=3, D=D3, grid=grid, t_final=0.01, scheme=scheme, cadence=2)
    state = ConcentrationState(grid, _random_state(np.random.default_rng(1), 3, grid.cells), 0.0)
    dt = max_stable_dt(grid, D3)
    buffers = []

    def kernel(cf, g, D, out=None):
        buffers.append(out)
        return solve_fluxes_batch(cf, g, D, out=out)

    def readings(solve):
        monkeypatch.setattr(sim, "solve_fluxes_batch", solve)
        new, info = step(state, D3, dt, scheme)
        [traj] = run_lockstep([sc])
        return [new.c.tobytes(), info, traj.states.tobytes(), traj.flux_inf_series.base.tobytes()]

    got = readings(kernel)
    assert buffers and all(out is not None and out.shape == (3, 1) for out in buffers)
    assert got == readings(lambda cf, g, D, out=None: solve_fluxes_batch(cf, g, D))


def _advance_reference(c, D, grid, dt, scheme):
    """sim._advance in its out-of-place form, on divergences of the same
    calls: (new c, clipped mass)."""
    div = sim._face_divergence(c, D, grid)[0]
    c_new, clipped = sim._clip(c - dt * div, grid)
    if scheme == "heun":
        div2 = sim._face_divergence(c_new, D, grid)[0]
        c_new, lost = sim._clip(c - 0.5 * dt * (div + div2), grid)
        clipped = clipped + lost
    return c_new, clipped


@pytest.mark.parametrize("scheme", ["euler", "heun"])
def test_in_place_steps_match_the_out_of_place_formulas(scheme):
    # a state, and a stack with a dt column, of the edge case whose steps
    # at the stability bound clip
    D, edge = edge_case()
    grid = PeriodicGrid((16,))
    dt = max_stable_dt(grid, D)
    smooth = _random_state(np.random.default_rng(5), 3, grid.cells)
    cases = [(edge, dt), (np.stack([edge, smooth, edge], axis=1), np.array([[dt], [dt], [dt / 2]]))]
    for c, dt in cases:
        clipped_any = False
        for _ in range(4):
            got, _, clipped, _ = sim._advance(c, D, grid, dt, scheme)
            want, want_clipped = _advance_reference(c, D, grid, dt, scheme)
            assert got.tobytes() == want.tobytes()
            assert np.array_equal(clipped, want_clipped)
            clipped_any |= bool(np.any(clipped))
            c = got
        assert clipped_any


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("cells", [(24,), (12, 10)])
def test_results_do_not_alias_the_scratch(n, cells):
    rng = np.random.default_rng(10 * n + len(cells))
    d = np.triu(rng.uniform(0.5, 4.0, size=(n, n)), 1)
    D = DiffusionMatrix(d + d.T)
    grid = PeriodicGrid(cells)
    c, other = _random_state(rng, n, cells), _random_state(rng, n, cells)
    div, faces, _, _ = divergence_and_faces(c, D, grid)
    m = math.prod(cells)
    g = rng.normal(size=(m, n))
    g -= g.mean(axis=1, keepdims=True)
    J, _ = solve_fluxes_batch(c.reshape(n, m).T, g, D)
    dt = 0.5 * max_stable_dt(grid, D)
    states = [step(ConcentrationState(grid, c, 0.0), D, dt, scheme)[0].c for scheme in ("euler", "heun")]
    kept = [div.tobytes(), [F.tobytes() for F in faces], J.tobytes(), [s.tobytes() for s in states]]
    # a second call of the same shape on other data reuses the scratch
    divergence_and_faces(other, D, grid)
    solve_fluxes_batch(other.reshape(n, m).T, -2.0 * g, D)
    for scheme in ("euler", "heun"):
        step(ConcentrationState(grid, other, 0.0), D, dt, scheme)
    assert kept == [div.tobytes(), [F.tobytes() for F in faces], J.tobytes(), [s.tobytes() for s in states]]


def test_threads_running_on_one_grid_match_serial_runs():
    # more threads than cores, switching often, on one grid and species count:
    # each thread has its own scratch, so every run matches its serial bytes
    grid = PeriodicGrid((40, 32))
    base = Scenario(n=3, D=D3, grid=grid, t_final=0.0004, amplitude=0.4, cadence=3)
    scenarios = [base, replace(base, mode=2, scheme="heun", amplitude=0.3)] * 2
    serial = [run(sc) for sc in scenarios[:2]] * 2
    threaded = [None] * len(scenarios)
    start = threading.Barrier(len(scenarios))

    def work(k):
        start.wait(timeout=60)
        traj = run(scenarios[k])
        threaded[k] = traj, fresh_snapshot_fluxes(traj)  # solved on this thread's scratch

    workers = [threading.Thread(target=work, args=(k,)) for k in range(len(scenarios))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    for a, (b, fluxes) in zip(serial, threaded):
        assert a.states.tobytes() == b.states.tobytes()
        assert fresh_snapshot_fluxes(a).tobytes() == fluxes.tobytes()
        assert a.entropy_series == b.entropy_series
        assert a.residual_series.tobytes() == b.residual_series.tobytes()


@pytest.mark.parametrize("cells", [(24,), (2,), (1, 5), (12, 10), (6, 5, 4)])
def test_cell_average_matches_its_roll_reference(cells):
    rng = np.random.default_rng(len(cells) + sum(cells))
    for members in [(), (4,)]:
        faces = [rng.normal(size=(3, *members, *cells)) for _ in cells]
        # the np.roll form of _cell_average, kept as its byte-level reference
        ref = np.stack([0.5 * (F + np.roll(F, 1, axis=1 + len(members) + k))
                        for k, F in enumerate(faces)], axis=1)
        assert sim._cell_average(faces, np.empty_like(ref)).tobytes() == ref.tobytes()
        if members:  # into a strided view, as _snapshot_fluxes gives it
            out = np.empty((4, 3, len(cells), *cells))
            sim._cell_average(faces, np.moveaxis(out, 0, 2))
            assert np.moveaxis(out, 0, 2).tobytes() == ref.tobytes()


@pytest.mark.parametrize("cells", [(16,), (8, 6)])
def test_runs_take_no_roll(monkeypatch, cells):
    sc = Scenario(n=3, D=D3, grid=PeriodicGrid(cells), t_final=0.001,
                  amplitude=0.4, scheme="heun", cadence=2)
    expected = run(sc)

    def no_roll(*args, **kwargs):
        raise AssertionError("np.roll is off the step path")

    monkeypatch.setattr(np, "roll", no_roll)
    traj = run(sc)
    assert len(traj.states) == len(expected.states) >= 3
    J, expected_J = _block_fluxes(traj), _block_fluxes(expected)
    assert len(J) == len(expected_J) == len(traj.states)
    for k in range(len(traj.states)):
        assert traj.states[k].tobytes() == expected.states[k].tobytes()
        assert J[k].tobytes() == expected_J[k].tobytes()
    assert traj.entropy_series == expected.entropy_series


@pytest.mark.parametrize("cls", [Scenario, sim.Trajectory, Perturbation])
def test_annotations_resolve(cls):
    hints = typing.get_type_hints(cls)
    assert hints and all(name in hints for name in cls.__dataclass_fields__)
    if cls is Scenario:
        assert hints["D"] is DiffusionMatrix


@pytest.mark.parametrize("scheme,stages", [("euler", 1), ("heun", 2)])
@pytest.mark.parametrize("cadence", [1, 3])
def test_run_steps_through_step_and_solves_snapshots_on_read(monkeypatch, scheme, stages, cadence):
    calls = {"faces": 0, "step": 0}

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(sim, "_face_divergence", counting("faces", sim._face_divergence))
    monkeypatch.setattr(sim, "step", counting("step", sim.step))
    sc = Scenario(n=3, D=D3, grid=PeriodicGrid((16,)), t_final=0.001,
                  scheme=scheme, cadence=cadence)
    steps = sc.resolve_steps()[1]
    traj = run(sc)
    assert calls["step"] == steps
    assert len(traj.states) == 1 + math.ceil(steps / cadence)
    # the steps' stages are the run's only face solves
    assert calls["faces"] == steps * stages
    # a flux read solves the snapshots in blocks, here of two
    _blocks_of(monkeypatch, 2, 3, sc.grid)
    weak_form_residual(traj, identity_renorm(), bump_test_function(sc.grid, -1.0, traj.times[-1]))
    assert calls["faces"] == steps * stages + math.ceil(len(traj.states) / 2)


def test_residual_series_carries_each_steps_kernel_residual():
    sc = Scenario(n=3, D=D3, grid=PeriodicGrid((16,)), t_final=0.001,
                  amplitude=0.4, scheme="heun", cadence=1)
    traj = run(sc)
    assert len(traj.residual_series) == len(traj.step_times)
    assert traj.residual_series[0] == 0.0
    assert max(traj.residual_series) <= 1e-10
    # the first step on its own repeats the first step of the run
    state, info = step(sc.initial_state(), D3, traj.dt, scheme="heun")
    assert np.array_equal(state.c, traj.states[1])
    assert info.residual == traj.residual_series[1]


def _assert_records_in_one_block(traj, steps):
    series = (traj.flux_inf_series, traj.clipped_series, traj.residual_series)
    for s in series:
        assert s.dtype == np.float64 and s.shape == (steps + 1,)
        assert s.base is series[0].base and s.base.shape == (3, steps + 1)
    assert traj.step_times.tobytes() == (np.arange(steps + 1) * traj.dt).tobytes()
    assert traj.step_times.tobytes() == np.array([k * traj.dt for k in range(steps + 1)]).tobytes()


def test_step_records_fill_one_preallocated_block():
    sc = Scenario(n=3, D=D3, grid=PeriodicGrid((8,)), t_final=0.4, dt=1e-4, cadence=4000)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        traj = run(sc)
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    steps = len(traj.flux_inf_series) - 1
    assert steps == 4000
    # the run holds its two snapshots, their times and 24 B of records per step
    assert held - traj.states.nbytes <= 32 * steps, held / steps
    _assert_records_in_one_block(traj, steps)
    short = replace(sc, t_final=0.002, cadence=1)
    members = run_lockstep([short, replace(short, dt=5e-5, cadence=3)])
    for traj, steps in zip(members, (20, 40)):
        _assert_records_in_one_block(traj, steps)


def test_stability_guards():
    grid = PeriodicGrid((32,))
    cap = max_stable_dt(grid, D3)
    with pytest.raises(CflViolation):
        run(Scenario(n=3, D=D3, grid=grid, t_final=0.001, dt=0.00025))
    state = Scenario(n=3, D=D3, grid=grid, t_final=1.0, preset="uniform").initial_state()
    with pytest.raises(CflViolation):
        step(state, D3, 2.0 * cap)
    # an explicit dt must tile t_final exactly
    with pytest.raises(ValueError):
        Scenario(n=3, D=D3, grid=grid, t_final=0.001, dt=0.0003).resolve_steps()


@pytest.mark.parametrize(
    "kwargs,error,fragment",
    [
        # an explicit dt that tiles t_final but is twice the stability bound
        ({"dt": 2.5e-4}, CflViolation, "exceeds stability bound"),
        ({"dt": 3e-4}, ValueError, "does not divide"),
        ({"cfl": 1e-300}, ValueError, "more than 10000000"),
        ({"t_final": 1e300}, ValueError, "more than 10000000"),
        ({"t_final": 1e300, "dt": 1e-300}, ValueError, "more than 10000000"),
    ],
    ids=["dt-above-bound", "dt-not-dividing", "tiny-cfl", "huge-t_final", "huge-t_final-over-dt"],
)
def test_resolve_steps_rejects(kwargs, error, fragment):
    # 32 cells, D_max = 3: the stability bound is 1.63e-4
    sc = Scenario(**{"n": 3, "D": D3, "grid": PeriodicGrid((32,)),
                     "t_final": 0.001, **kwargs})
    with pytest.raises(error) as err:
        sc.resolve_steps()
    assert fragment in str(err.value), str(err.value)


def test_resolve_steps_largest_count_passes():
    grid = PeriodicGrid((32,))
    cap = max_stable_dt(grid, D3)
    sc = Scenario(n=3, D=D3, grid=grid, t_final=MAX_STEPS * cap, cfl=1.0)
    assert sc.resolve_steps()[1] == MAX_STEPS


def test_scenario_validation():
    grid = PeriodicGrid((16,))
    with pytest.raises(ValueError):
        Scenario(n=2, D=D3, grid=grid, t_final=1.0)
    with pytest.raises(ValueError):
        Scenario(n=3, D=D3, grid=grid, t_final=-1.0)
    with pytest.raises(ValueError):
        Scenario(n=3, D=D3, grid=grid, t_final=1.0, cfl=1.5)
    with pytest.raises(ValueError):
        Scenario(n=3, D=D3, grid=grid, t_final=1.0, scheme="rk4")
    with pytest.raises(ValueError):
        Scenario(n=3, D=D3, grid=grid, t_final=1.0, cadence=0)
    with pytest.raises(ValueError):
        Scenario(n=3, D=D3, grid=grid, t_final=1.0, preset="vortex").initial_state()
    with pytest.raises(ValueError):
        Scenario(n=3, D=D3, grid=grid, t_final=1.0, weights=[1.0, 1.0]).initial_state()
    with pytest.raises(ValueError):
        Scenario(n=3, D=D3, grid=grid, t_final=1.0, preset="binary_mode").initial_state()


def test_scenario_refine_scales_time_step_parabolically():
    sc = Scenario(n=3, D=D3, grid=PeriodicGrid((16,)), t_final=0.001,
                  dt=1e-4, cadence=2)
    fine = sc.refine(2)
    assert fine.grid.cells == (32,)
    assert fine.dt == 2.5e-5
    assert fine.cadence == 8
    auto = Scenario(n=3, D=D3, grid=PeriodicGrid((16,)), t_final=0.001).refine(2)
    assert auto.dt is None and auto.cadence == 1


def test_apply_positivity_cases():
    # harmless rounding noise passes through untouched
    c = np.array([[0.5, -1e-13], [0.5, 1.0]])
    out, lost = apply_positivity(c, 0.5)
    assert out is c and lost == 0.0
    # genuine undershoot within budget: clipped cell back on the simplex
    c = np.array([[0.5, -1e-10], [0.5, 1.0 + 1e-10]])
    out, lost = apply_positivity(c, 0.5)
    assert lost > 0.0
    assert out.min() == 0.0
    assert abs(out[:, 1].sum() - 1.0) < 1e-15
    assert np.array_equal(out[:, 0], c[:, 0])
    with pytest.raises(PositivityFailure):
        apply_positivity(np.array([[-0.1, 0.6], [1.1, 0.4]]), 0.5)


def test_scheme_orders_against_fine_reference():
    grid = PeriodicGrid((32,))
    T = 0.004
    mk = lambda steps, scheme: Scenario(
        n=2, D=D2, grid=grid, t_final=T, preset="binary_mode",
        amplitude=0.3, dt=T / steps, scheme=scheme,
    )
    ref = run(mk(512, "heun")).states[-1]
    orders = {}
    for scheme in ("euler", "heun"):
        errs = [l2_norm(run(mk(steps, scheme)).states[-1] - ref, grid)
                for steps in (16, 32)]
        orders[scheme] = math.log2(errs[0] / errs[1])
    assert 0.8 < orders["euler"] < 1.3, orders
    assert orders["heun"] > 1.7, orders


def test_twin_without_perturbation_is_bitwise_identical():
    sc = Scenario(n=3, D=D3, grid=PeriodicGrid((24,)), t_final=0.002, cadence=2)
    base, twin = run_lockstep([sc, sc])
    for ca, cb in zip(base.states, twin.states):
        assert np.array_equal(ca, cb)
    cert = gronwall_certificate(base, twin, sc.delta)
    assert np.all(cert.diagnostics["r_distance"] == 0.0)
    assert cert.holds


def test_twin_time_refinement_aligns_snapshots():
    sc = Scenario(n=3, D=D3, grid=PeriodicGrid((24,)), t_final=0.002, cadence=2)
    dt, _ = sc.resolve_steps()
    base, twin = run_lockstep([replace(sc, dt=dt), replace(sc, dt=dt / 2, cadence=4)])
    assert twin.dt == base.dt / 2
    assert np.abs(np.asarray(base.times) - np.asarray(twin.times)).max() == 0.0
    assert gronwall_certificate(base, twin, sc.delta).holds


def test_perturbation_is_mass_neutral_and_guarded():
    grid = PeriodicGrid((32,))
    sc = Scenario(n=3, D=D3, grid=grid, t_final=1.0, amplitude=0.3)
    state = sc.initial_state()
    shaken = Perturbation(amplitude=0.01, mode=2).apply(state)
    before = integrate(state.c, grid)
    after = integrate(shaken.c, grid)
    assert np.abs(after - before).max() < 1e-14
    assert np.abs(shaken.c[2] - state.c[2]).max() == 0.0  # untouched species
    big = Perturbation(amplitude=0.7)
    with pytest.raises(ValueError):
        Scenario(n=2, D=D2, grid=grid, t_final=1.0, preset="uniform",
                 perturbation=big).initial_state()


def test_trajectory_accessors():
    sc = Scenario(n=3, D=D3, grid=PeriodicGrid((16,)), t_final=0.001, cadence=3)
    traj = run(sc)
    st = traj.state(1)
    assert isinstance(st, ConcentrationState)
    assert st.time == traj.times[1]
    assert traj.n == 3
    assert traj.flux_inf > 0.0


def test_bump_test_function_support_and_derivatives():
    grid = PeriodicGrid((64,))
    phi = bump_test_function(grid, -0.004, 0.0035)
    assert np.all(phi.value(0.0035) == 0.0)
    assert np.all(phi.value(0.01) == 0.0)
    assert np.abs(phi.value(0.0)).max() > 0.0  # active at the initial time
    t, h = 0.001, 1e-7
    fd = (phi.value(t + h) - phi.value(t - h)) / (2 * h)
    assert np.abs(fd - phi.dt(t)).max() < 1e-5 * np.abs(phi.dt(t)).max()
    # analytic space gradient against the central difference of the samples
    v = phi.value(t)
    hx = grid.spacing[0]
    fd_x = (np.roll(v, -1) - np.roll(v, 1)) / (2 * hx)
    assert np.abs(fd_x - phi.grad(t)[0]).max() < 0.02 * np.abs(phi.grad(t)).max()


def test_weak_form_requires_vanishing_final_test_function():
    sc = Scenario(n=3, D=D3, grid=PeriodicGrid((16,)), t_final=0.004,
                  dt=0.004 / 32, cadence=1)
    traj = run(sc)
    alive = bump_test_function(traj.grid, -0.004, 0.008)
    with pytest.raises(ValueError):
        weak_form_residual(traj, identity_renorm(), alive)


@pytest.mark.parametrize("per", [None, 4])
def test_weak_form_solves_fluxes_per_block_and_keeps_none(monkeypatch, per):
    T, grid = 0.004, PeriodicGrid((16,))
    if per is not None:  # 33 snapshots: the last block holds one
        _blocks_of(monkeypatch, per, 3, grid)
    traj = run(Scenario(n=3, D=D3, grid=grid, t_final=T, amplitude=0.3, dt=T / 32,
                        scheme="heun"))
    beta, phi = log_shift_renorm(0.05), bump_test_function(grid, -T, 0.0035)
    got = weak_form_residual(traj, beta, phi)
    # the per-snapshot loop that the blocks replaced, over fresh fluxes
    rows = []
    for t, c, J in zip(traj.times, traj.states, fresh_snapshot_fluxes(traj)):
        gc = gradient(c, grid)
        rows.append(integrate(beta.f(c) * phi.dt(t), grid)
                    + integrate((beta.df(c)[:, None] * J * phi.grad(t)[None]).sum(axis=1), grid)
                    + integrate(beta.d2f(c) * (J * gc).sum(axis=1) * phi.value(t), grid))
    bulk = _cumulative_trapezoid(np.asarray(rows), np.asarray(traj.times))[-1]
    ref = np.abs(integrate(beta.f(traj.states[0]) * phi.value(0.0), grid) + bulk)
    assert got.tobytes() == ref.tobytes()


def test_weak_form_residual_refines():
    T = 0.004
    beta = identity_renorm()
    residuals, widths = [], []
    for k in range(2):
        cells = 16 * 2**k
        sc = Scenario(n=3, D=D3, grid=PeriodicGrid((cells,)), t_final=T,
                      amplitude=0.3, dt=T / (32 * 4**k), cadence=2**k)
        traj = run(sc)
        phi = bump_test_function(traj.grid, -T, 0.0035)
        residuals.append(weak_form_residual(traj, beta, phi))
        widths.append(1.0 / cells)
    ratios = residuals[0] / residuals[1]
    assert ratios.min() > 2.0, (residuals, ratios)
