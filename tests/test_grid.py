"""Grid calculus against closed-form discrete identities."""

import dataclasses
import math
import operator
import pickle

import numpy as np
import pytest

from msdiff.grid import (
    ConcentrationState,
    GridMismatch,
    PeriodicGrid,
    _shift,
    gradient,
    integrate,
    l2_norm,
)
from msdiff.suites import _map_jobs


def test_grid_geometry():
    grid = PeriodicGrid((8, 4), (2.0, 1.0))
    assert grid.dim == 2
    assert grid.spacing == (0.25, 0.25)
    assert grid.cell_volume == 0.0625
    x, y = grid.axes()
    assert x[0] == 0.125 and x[-1] == 2.0 - 0.125
    assert len(y) == 4
    fine = grid.refine(2)
    assert fine.cells == (16, 8) and fine.lengths == (2.0, 1.0)


@pytest.mark.parametrize(
    "cells,lengths",
    [((8,), None), ((7,), (0.3,)), ((8, 4), (2.0, 1.0)), ((5, 3, 6), (1.0, 0.7, 2.9))],
)
def test_cached_geometry_matches_its_formulas(cells, lengths):
    grid = PeriodicGrid(cells, lengths)
    fresh = PeriodicGrid(cells, lengths)
    assert grid == fresh and hash(grid) == hash(fresh)
    assert grid.spacing == tuple(L / m for L, m in zip(grid.lengths, grid.cells))
    assert grid.cell_volume == float(np.prod(grid.spacing))
    # a filled cache changes neither equality nor the hash
    assert grid == fresh and hash(grid) == hash(fresh)
    assert "spacing" in vars(grid) and "spacing" not in vars(fresh)
    assert grid.spacing is grid.spacing


def test_cached_geometry_is_fresh_on_new_grids_and_stays_frozen():
    grid = PeriodicGrid((8, 4), (2.0, 1.0))
    assert grid.spacing == (0.25, 0.25) and grid.cell_volume == 0.0625
    fine = grid.refine(2)
    assert fine.spacing == (0.125, 0.125) and fine.cell_volume == 0.015625
    wide = dataclasses.replace(grid, lengths=(4.0, 1.0))
    assert wide.spacing == (0.5, 0.25) and wide.cell_volume == 0.125
    with pytest.raises(dataclasses.FrozenInstanceError):
        grid.cells = (16, 8)
    with pytest.raises(dataclasses.FrozenInstanceError):
        grid.lengths = (1.0, 1.0)
    assert grid.cells == (8, 4) and grid.spacing == (0.25, 0.25)


def test_cached_geometry_survives_pickling_and_worker_processes():
    filled = PeriodicGrid((12, 5), (1.5, 0.5))
    expected = (filled.spacing, filled.cell_volume)
    empty = PeriodicGrid((12, 5), (1.5, 0.5))
    for grid in (filled, empty):
        back = pickle.loads(pickle.dumps(grid))
        assert back == grid and hash(back) == hash(grid)
        assert (back.spacing, back.cell_volume) == expected
    # the process pool behind the --workers option pickles every grid it ships
    got = _map_jobs(operator.attrgetter("spacing", "cell_volume"), [filled, empty], 2)
    assert got == [expected, expected]


def _shift_shapes():
    for cells in [(5,), (1,), (2,), (4, 3), (1, 2), (2, 1), (3, 2, 4), (2, 1, 3)]:
        for batch in [(), (2,), (2, 3)]:
            yield batch + cells


@pytest.mark.parametrize("shape", list(_shift_shapes()))
def test_shift_is_roll_by_one_cell_byte_for_byte(shape):
    f = np.random.default_rng(len(shape) + sum(shape)).normal(size=shape)
    for axis in range(-f.ndim, f.ndim):
        for step in (1, -1):
            got = _shift(f, step, axis)
            ref = np.roll(f, step, axis=axis)
            assert got.shape == ref.shape and got.tobytes() == ref.tobytes()
            assert not np.shares_memory(got, f)
            # into a given buffer: a C-ordered one, and a strided slot out[:, 1]
            # of a wider array, whose other slot stays as it was
            buf = np.full_like(f, np.nan)
            assert _shift(f, step, axis, out=buf) is buf
            assert buf.tobytes() == ref.tobytes()
            wide = np.full(f.shape[:1] + (2,) + f.shape[1:], np.nan)
            slot = _shift(f, step, axis, out=wide[:, 1])
            assert slot.tobytes() == ref.tobytes() and np.isnan(wide[:, 0]).all()


def _gradient_by_roll(f, grid):
    """The np.roll form of gradient, kept as its byte-level reference."""
    comps = []
    for k, h in enumerate(grid.spacing):
        ax = f.ndim - grid.dim + k
        comps.append((np.roll(f, -1, axis=ax) - np.roll(f, 1, axis=ax)) / (2.0 * h))
    return np.stack(comps, axis=f.ndim - grid.dim)


@pytest.mark.parametrize("cells", [(9,), (2,), (1,), (6, 5), (1, 4), (4, 3, 2)])
@pytest.mark.parametrize("batch", [(), (3,)])
def test_stencils_match_their_roll_references(cells, batch):
    grid = PeriodicGrid(cells, tuple(1.0 + 0.3 * k for k in range(len(cells))))
    rng = np.random.default_rng(sum(cells) + len(batch))
    f = rng.normal(size=batch + cells)
    assert gradient(f, grid).tobytes() == _gradient_by_roll(f, grid).tobytes()


def test_grid_rejects_bad_shapes():
    with pytest.raises(ValueError):
        PeriodicGrid((8, 8, 8, 8))
    with pytest.raises(ValueError):
        PeriodicGrid((0,))
    with pytest.raises(ValueError):
        PeriodicGrid((8,), (-1.0,))
    with pytest.raises(ValueError):
        PeriodicGrid((8, 8), (1.0,) * 3)
    grid = PeriodicGrid((8,))
    with pytest.raises(GridMismatch):
        grid.check_field(np.zeros(7))


def test_gradient_matches_discrete_fourier_symbol():
    # central differencing of sin(kx) gives cos(kx) * sin(kh)/h exactly
    grid = PeriodicGrid((64,))
    (x,) = grid.axes()
    h = grid.spacing[0]
    k = 2.0 * math.pi * 3
    g = gradient(np.sin(k * x), grid)
    expected = np.cos(k * x) * math.sin(k * h) / h
    assert np.abs(g[0] - expected).max() < 1e-13


def test_gradient_batch_axes():
    grid = PeriodicGrid((16, 8))
    f = np.random.default_rng(0).normal(size=(3, 16, 8))
    g = gradient(f, grid)
    assert g.shape == (3, 2, 16, 8)
    single = gradient(f[1], grid)
    assert np.array_equal(g[1], single)


def test_gradient_commutes_with_translation():
    grid = PeriodicGrid((32,))
    f = np.random.default_rng(1).normal(size=32)
    assert np.allclose(
        gradient(np.roll(f, 5), grid), np.roll(gradient(f, grid), 5, axis=-1),
        rtol=0.0, atol=1e-15,
    )


def test_gradient_summation_by_parts():
    # the central-difference matrix of each axis is antisymmetric on the
    # torus: sum(g D_k f) = -sum(f D_k g), and each D_k f sums to zero, up
    # to rounding
    grid = PeriodicGrid((24, 10), (1.0, 0.7))
    f, g = np.random.default_rng(3).normal(size=(2, 24, 10))
    lhs = integrate(gradient(f, grid) * g, grid)
    rhs = -integrate(f * gradient(g, grid), grid)
    assert lhs.shape == (2,) and np.abs(lhs - rhs).max() < 1e-13
    assert np.abs(integrate(gradient(f, grid), grid)).max() < 1e-13


def test_integrate_midpoint_quadratic_defect():
    # midpoint rule on x^2 over the unit torus misses exactly h^2/12
    for m in (16, 64):
        grid = PeriodicGrid((m,))
        (x,) = grid.axes()
        h = grid.spacing[0]
        assert abs(integrate(x**2, grid) - (1.0 / 3.0 - h**2 / 12.0)) < 1e-15


def test_integrate_batch_and_l2():
    grid = PeriodicGrid((10,), (2.0,))
    f = np.stack([np.ones(10), 3.0 * np.ones(10)])
    vals = integrate(f, grid)
    assert np.allclose(vals, [2.0, 6.0])
    assert abs(l2_norm(np.ones(10), grid) - math.sqrt(2.0)) < 1e-14
    # batched fields fold into one norm
    assert abs(l2_norm(f, grid) - math.sqrt(2.0 + 18.0)) < 1e-13


def test_state_validation():
    grid = PeriodicGrid((8,))
    c = np.stack([np.full(8, 0.25), np.full(8, 0.75)])
    ConcentrationState(grid, c).validate()
    bad = c.copy()
    bad[0, 0] += 1e-6
    with pytest.raises(ValueError):
        ConcentrationState(grid, bad).validate()
    neg = np.stack([np.full(8, -0.1), np.full(8, 1.1)])
    with pytest.raises(ValueError):
        ConcentrationState(grid, neg).validate()
    with pytest.raises(GridMismatch):
        ConcentrationState(grid, np.zeros(8))


def test_state_mass_and_copy():
    grid = PeriodicGrid((8,), (2.0,))
    c = np.stack([np.full(8, 0.25), np.full(8, 0.75)])
    state = ConcentrationState(grid, c, time=0.5)
    assert np.allclose(integrate(state.c, grid), [0.5, 1.5])
    dup = state.copy()
    dup.c[0, 0] = 9.0
    assert state.c[0, 0] == 0.25 and dup.time == 0.5
