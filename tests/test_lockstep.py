"""Lockstep runs: members stepped together match their own runs byte for byte."""

import math
import re
from dataclasses import dataclass, replace

import numpy as np
import pytest

from msdiff import sim
from msdiff.flux import DiffusionMatrix
from msdiff.grid import ConcentrationState, PeriodicGrid
from msdiff.sim import Perturbation, Scenario, run, run_lockstep

D3 = DiffusionMatrix.from_pairs(3, {(0, 1): 1.0, (0, 2): 2.0, (1, 2): 3.0})
D4 = DiffusionMatrix.from_pairs(
    4, {(0, 1): 1.0, (0, 2): 2.0, (0, 3): 0.5, (1, 2): 3.0, (1, 3): 1.5, (2, 3): 0.8})


def assert_matches_run(traj, ref):
    """traj equals ref byte for byte, but for residuals at least ref's own."""
    assert traj.states.tobytes() == ref.states.tobytes()
    assert traj.fluxes.tobytes() == ref.fluxes.tobytes()
    assert traj.times == ref.times
    assert traj.step_times.tobytes() == ref.step_times.tobytes()
    assert traj.entropy_series == ref.entropy_series
    assert traj.flux_inf_series.tobytes() == ref.flux_inf_series.tobytes()
    assert traj.clipped_series.tobytes() == ref.clipped_series.tobytes()
    assert len(traj.residual_series) == len(ref.residual_series)
    assert all(a >= b for a, b in zip(traj.residual_series, ref.residual_series))
    assert traj.dt == ref.dt and traj.scheme == ref.scheme and traj.grid == ref.grid


def ladder(grid, scheme, D=D3):
    """Members at ratios 4, 1, 2 and 4 (given out of order), with mixed
    cadences; the last is perturbed."""
    base = Scenario(n=D.n, D=D, grid=grid, t_final=0.002, amplitude=0.4, scheme=scheme)
    dt, steps = base.resolve_steps()
    return [
        replace(base, dt=dt, cadence=3),
        replace(base, dt=dt / 4, cadence=4 * steps),
        replace(base, dt=dt / 2, cadence=5, mode=2),
        replace(base, dt=dt, cadence=1, perturbation=Perturbation(amplitude=0.01, mode=1)),
    ]


@pytest.mark.parametrize("scheme,stages", [("euler", 1), ("heun", 2)])
@pytest.mark.parametrize("cells", [(24,), (12, 10)])
def test_members_match_their_own_runs(monkeypatch, scheme, stages, cells):
    members = ladder(PeriodicGrid(cells), scheme)
    refs = [run(sc) for sc in members]
    calls = []
    real = sim._face_divergence

    def counted(c, D, grid):
        calls.append(c.shape)
        return real(c, D, grid)

    monkeypatch.setattr(sim, "_face_divergence", counted)
    trajs = run_lockstep(members)
    # one face solve per stage and tick and none for snapshots: the finest
    # member steps every tick, and the members due form a prefix
    ticks = len(refs[1].step_times) - 1
    assert len(calls) == ticks * stages
    assert max(shape[1] for shape in calls) == len(members)
    # each member's first flux read solves its snapshots in blocks, here of 2
    monkeypatch.setattr(sim, "_BLOCK_VALUES", 2 * 9 * len(cells) * math.prod(cells))
    calls.clear()
    for traj in trajs:
        traj.fluxes
    assert len(calls) == sum(-(-len(traj.states) // 2) for traj in trajs)
    assert [shape[1] for shape in calls] == [
        min(2, len(traj.states) - lo) for traj in trajs for lo in range(0, len(traj.states), 2)]
    for traj, ref in zip(trajs, refs):
        assert_matches_run(traj, ref)
    assert not any(traj.clipped_total for traj in trajs)


@pytest.mark.parametrize("scheme", ["euler", "heun"])
@pytest.mark.parametrize("cells", [(24,), (12, 10)])
def test_four_species_members_match_their_own_runs(scheme, cells):
    # from four species on the kernel eliminates on (n, n, block) stacks;
    # stacking members changes the batch, and no bit of a member may move
    members = ladder(PeriodicGrid(cells), scheme, D4)
    for traj, member in zip(run_lockstep(members), members):
        assert_matches_run(traj, run(member))


def test_entropy_blocks_do_not_change_the_series(monkeypatch):
    # 500 values give a trajectory of 24 cells and 3 species blocks of 2
    # snapshots, so three of the four members end in a partial block
    monkeypatch.setattr(sim, "_BLOCK_VALUES", 500)
    members = ladder(PeriodicGrid((24,)), "heun")
    for traj, member in zip(run_lockstep(members), members):
        assert_matches_run(traj, run(member))


@dataclass
class EdgeState(Perturbation):
    """Replaces the initial data by a fixed state with one species near 0."""

    c: np.ndarray = None

    def apply(self, state):
        return ConcentrationState(state.grid, self.c.copy(), state.time)


def edge_case():
    """A mixture with strongly unequal diffusivities and species 0 down to
    exact zeros, whose Euler and Heun runs at cfl 1 both clip within budget."""
    rng = np.random.default_rng(4)
    d01, d02, d12 = np.exp(rng.uniform(math.log(0.02), math.log(50.0), 3))
    D = DiffusionMatrix.from_pairs(3, {(0, 1): d01, (0, 2): d02, (1, 2): d12})
    c = rng.uniform(0.0, 1.0, size=(3, 16)) ** 3
    c[0] *= 10.0 ** rng.uniform(-9, -1)
    c[:, rng.uniform(size=16) < 0.3] *= np.array([[0.0], [1.0], [1.0]])
    return D, c / c.sum(axis=0)


@pytest.mark.parametrize("scheme", ["euler", "heun"])
def test_one_member_clips_alone(scheme):
    D, c = edge_case()
    clipper = Scenario(n=3, D=D, grid=PeriodicGrid((16,)), t_final=0.002, cfl=1.0,
                       scheme=scheme, perturbation=EdgeState(0.0, c=c))
    dt, _ = clipper.resolve_steps()
    smooth = replace(clipper, perturbation=None, dt=dt)
    members = [smooth, replace(clipper, dt=dt), replace(smooth, dt=dt / 2, cadence=3)]
    refs = [run(sc) for sc in members]
    assert refs[1].clipped_total > 0.0
    assert refs[0].clipped_total == refs[2].clipped_total == 0.0
    for traj, ref in zip(run_lockstep(members), refs):
        assert_matches_run(traj, ref)


def test_equal_steps_and_single_members():
    sc = Scenario(n=3, D=D3, grid=PeriodicGrid((16,)), t_final=0.001, scheme="heun", cadence=2)
    pert = replace(sc, perturbation=Perturbation(amplitude=0.02, mode=2))
    for members in ([sc], [sc, pert], [pert, sc, sc]):
        for traj, member in zip(run_lockstep(members), members):
            assert_matches_run(traj, run(member))


def test_perturbed_half_step_twin_matches_separate_runs():
    sc = Scenario(n=3, D=D3, grid=PeriodicGrid((16,)), t_final=0.002, amplitude=0.3,
                  scheme="heun", cadence=2)
    dt, _ = sc.resolve_steps()
    pair = [replace(sc, dt=dt),
            replace(sc, dt=dt / 2, cadence=4, perturbation=Perturbation(amplitude=1e-3, mode=2))]
    for traj, member in zip(run_lockstep(pair), pair):
        assert_matches_run(traj, run(member))


def _random_stack(rng, n, members, cells):
    c = rng.uniform(0.05, 1.0, size=(n, members, *cells))
    return c / c.sum(axis=0, keepdims=True)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("cells", [(24,), (12, 10)])
def test_stacked_face_divergence_equals_member_calls(n, cells):
    rng = np.random.default_rng(7 * n + len(cells))
    d = np.triu(rng.uniform(0.5, 4.0, size=(n, n)), 1)
    D = DiffusionMatrix(d + d.T)
    grid = PeriodicGrid(cells)
    c = _random_stack(rng, n, 3, cells)
    c[:, 1] *= 0.5  # smaller gradients in the middle member: other fluxes
    c[:, 1] += 0.5 / n
    div, faces, fmax, residual = sim._face_divergence(c, D, grid)
    assert fmax.shape == (3,)
    residuals = []
    for i in range(3):
        ref_div, ref_faces, ref_fmax, ref_res = sim._face_divergence(c[:, i].copy(), D, grid)
        assert np.ascontiguousarray(div[:, i]).tobytes() == ref_div.tobytes()
        for F, ref in zip(faces, ref_faces):
            assert np.ascontiguousarray(F[:, i]).tobytes() == ref.tobytes()
        assert fmax[i] == ref_fmax
        residuals.append(ref_res)
    assert residual == max(residuals)


def test_prefix_views_solve_like_copies():
    rng = np.random.default_rng(3)
    grid = PeriodicGrid((10, 6))
    c = _random_stack(rng, 3, 4, grid.cells)
    view = sim._face_divergence(c[:, :2], D3, grid)
    copy = sim._face_divergence(c[:, :2].copy(), D3, grid)
    assert view[0].tobytes() == copy[0].tobytes()
    assert [F.tobytes() for F in view[1]] == [F.tobytes() for F in copy[1]]
    assert list(view[2]) == list(copy[2]) and view[3] == copy[3]


def _rejections():
    sc = Scenario(n=3, D=D3, grid=PeriodicGrid((16,)), t_final=0.001)
    dt, steps = sc.resolve_steps()
    D2 = DiffusionMatrix.uniform(2, 1.0)
    return [
        ([], "at least one"),
        ([sc, Scenario(n=2, D=D2, grid=sc.grid, t_final=0.001)], "share n"),
        ([sc, replace(sc, grid=PeriodicGrid((16,), lengths=(2.0,)))], "share grid"),
        ([sc, replace(sc, grid=PeriodicGrid((8,)))], "share grid"),
        ([sc, replace(sc, D=DiffusionMatrix.uniform(3, 1.0))], "share D"),
        ([sc, replace(sc, scheme="heun")], "share scheme"),
        ([sc, replace(sc, t_final=0.002)], "share t_final"),
        # 2 and 3 steps: 2 does not divide the 3 ticks
        ([replace(sc, dt=sc.t_final / 3), replace(sc, dt=sc.t_final / 2)], "divide 3"),
        # 12, 6 and 4 steps: ratios 1, 2, 3, and 2 does not divide 3
        ([replace(sc, dt=sc.t_final / s) for s in (12 * steps, 6 * steps, 4 * steps)],
         "ratios [1, 2, 3]"),
    ]


@pytest.mark.parametrize("members,fragment", _rejections())
def test_lockstep_rejects(members, fragment):
    with pytest.raises(ValueError, match=re.escape(fragment)):
        run_lockstep(members)
