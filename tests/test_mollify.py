"""Mollification kernels, space-time regularization rates, initial traces."""

import csv
import math
import warnings

import numpy as np
import pytest

from msdiff.grid import PeriodicGrid
from msdiff.mollify import (
    EpsilonTooSmallForGrid,
    bump_profile,
    fit_loglog,
    initial_pairing,
    initial_trace_mollification,
    mollify_spacetime,
    plain_pairing,
    rate_study,
)

GRID = PeriodicGrid((128,))
T_MAX, T_CELLS = 1.0, 128


def ones(a, b):
    return np.ones_like(np.asarray(a, float) + np.asarray(b, float))


def test_bump_profile_support_and_smooth_decay():
    assert bump_profile(0.0) == math.exp(-1.0)
    assert bump_profile(1.0) == 0.0
    assert bump_profile(-1.0) == 0.0
    assert bump_profile(3.7) == 0.0
    vals = bump_profile(np.linspace(-0.99, 0.99, 21))
    assert np.all(vals > 0.0)
    assert bump_profile(0.5) == bump_profile(-0.5)


def test_epsilon_floor_guards():
    coarse = PeriodicGrid((16,))  # h = 1/16, so eps = 0.1 < 2h
    with pytest.raises(EpsilonTooSmallForGrid):
        mollify_spacetime(ones, ones, 0.1, coarse, T_MAX, T_CELLS)
    with pytest.raises(EpsilonTooSmallForGrid):
        initial_trace_mollification(ones, ones, 0.05, GRID, T_MAX, 8)


def test_spacetime_rate_boundary_active():
    # a test function alive at t = 0 loses kernel mass there: first order
    f = lambda y, t: 1.0 + 0.3 * np.sin(2 * np.pi * y) * (1.0 + t)
    ref = plain_pairing(f, ones, GRID, T_MAX, T_CELLS)
    study = rate_study(
        lambda e: mollify_spacetime(f, ones, e, GRID, T_MAX, T_CELLS),
        [0.2, 0.1, 0.05],
        ref,
    )
    assert 0.85 < study.slope < 1.15, study
    assert study.r2 > 0.99


def test_spacetime_rate_interior():
    # vanishing at both time ends removes the boundary deficit: second order
    f = lambda y, t: np.sin(2 * np.pi * y) * (1.0 + 0.5 * t)
    phi = lambda x, t: np.sin(2 * np.pi * x) * np.sin(np.pi * t / T_MAX) ** 2
    ref = plain_pairing(f, phi, GRID, T_MAX, T_CELLS)
    study = rate_study(
        lambda e: mollify_spacetime(f, phi, e, GRID, T_MAX, T_CELLS),
        [0.2, 0.1, 0.05],
        ref,
    )
    assert 1.7 < study.slope < 2.3, study
    assert study.r2 > 0.99


def test_initial_trace_constant_is_exact_half():
    val = initial_trace_mollification(ones, ones, 0.05, GRID, T_MAX, T_CELLS)
    assert abs(val - 0.5) < 1e-14


def test_initial_trace_converges_to_half_pairing():
    f = lambda y, t: 1.0 + 0.3 * np.sin(2 * np.pi * y) * np.exp(-t)
    phi = lambda x, t: 1.0 + 0.2 * np.sin(2 * np.pi * x) * (1.0 - t)
    ref = initial_pairing(f, phi, GRID)
    for eps in (0.05, 0.02):
        val = initial_trace_mollification(f, phi, eps, GRID, T_MAX, T_CELLS)
        assert abs(val - 0.5 * ref) < 0.01 * abs(0.5 * ref)
        # the factor one half is genuinely resolved, not a missed full pairing
        assert abs(val - ref) > 0.25 * abs(ref)


def test_fit_loglog_exact_power():
    slope, r2 = fit_loglog([2.0, 1.0, 0.5], [4.0, 1.0, 0.25])
    assert abs(slope - 2.0) < 1e-12
    assert r2 > 1.0 - 1e-12


@pytest.mark.parametrize(
    "eps,errors",
    [
        ([0.1, 0.05, 0.025], [1e-3, 2e-4, 0.0]),
        ([0.1, 0.05, 0.025], [1e-3, -2e-4, 1e-5]),
        ([0.1, 0.0, 0.025], [1e-3, 2e-4, 1e-5]),
        ([0.1, -0.05, 0.025], [1e-3, 2e-4, 1e-5]),
    ],
)
def test_fit_loglog_non_positive_values_give_nan_quietly(eps, errors):
    # no log(0) fit: a zero error must not read as a perfect R^2 beside a nan slope
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        slope, r2 = fit_loglog(eps, errors)
    assert math.isnan(slope) and math.isnan(r2)


def test_rate_study_csv_layout(tmp_path):
    path = tmp_path / "rates.csv"
    study = rate_study(lambda e: 3.0 + e, [0.2, 0.1, 0.05], 3.0, csv_path=str(path))
    assert study.eps_values == [0.05, 0.1, 0.2]
    assert abs(study.slope - 1.0) < 1e-12
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["epsilon", "value", "reference", "error"]
    assert len(rows) == 4
    assert [float(r[0]) for r in rows[1:]] == [0.05, 0.1, 0.2]
    assert all(abs(float(r[3]) - float(r[0])) < 1e-15 for r in rows[1:])
