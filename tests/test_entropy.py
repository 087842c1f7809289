"""Entropy functionals, the balance identity, and the twin certificates."""

import importlib
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from msdiff.entropy import (
    _entropy_rhs,
    _rel_entr,
    _relative_entropy,
    _renormalized_entropy,
    _symmetrized_entropy,
    _velocities,
    _xlogy,
    dissipation,
    entropy,
    error_terms,
    gronwall_certificate,
    identity_renorm,
    identity_series,
    log_shift_renorm,
    quadratic_log_gap,
    regularized_relative_entropy,
    square_renorm,
)
from msdiff.flux import DeltaOutOfRange, DiffusionMatrix
from msdiff.grid import ConcentrationState, GridMismatch, PeriodicGrid, integrate
from msdiff.sim import Perturbation, Scenario, max_stable_dt, run, run_lockstep
from snapshot_reference import fresh_snapshot_fluxes


def constant_state(grid, fractions, time=0.0):
    n = len(fractions)
    c = np.tile(np.asarray(fractions, float).reshape((n,) + (1,) * grid.dim),
                (1,) + grid.cells)
    return ConcentrationState(grid, c, time)


GRID = PeriodicGrid((16,))


def test_entropy_uniform_and_pure():
    # uniform mixture: H = ln(1/n) - 1; a pure species gives exactly -1
    for n in (2, 3, 5):
        state = constant_state(GRID, [1.0 / n] * n)
        assert abs(entropy(state) - (-math.log(n) - 1.0)) < 1e-14
    pure = constant_state(GRID, [1.0, 0.0])
    assert abs(entropy(pure) - (-1.0)) < 1e-14


def test_relative_entropy_hand_values():
    a = constant_state(GRID, [0.6, 0.4])
    b = constant_state(GRID, [0.5, 0.5])
    expected = 0.6 * math.log(0.6 / 0.5) + 0.4 * math.log(0.4 / 0.5)
    assert abs(_relative_entropy(a.c, b.c, GRID) - expected) < 1e-14
    assert _relative_entropy(a.c, a.c, GRID) == 0.0
    # mass term cancels only when both states sit on the simplex
    skew = 0.6 * math.log(0.6 / 0.3) - 0.3
    c = ConcentrationState(GRID, np.tile([[0.3], [0.7]], (1, 16)))
    got = _relative_entropy(constant_state(GRID, [0.6, 0.4]).c, c.c, GRID)
    expected = skew + 0.4 * math.log(0.4 / 0.7) + 0.3
    assert abs(got - expected) < 1e-14


def test_relative_entropy_infinite_on_lost_support():
    a = constant_state(GRID, [0.5, 0.5])
    b = constant_state(GRID, [1.0, 0.0])
    assert _relative_entropy(a.c, b.c, GRID) == math.inf


def test_entropy_primitives_edge_conventions():
    # apply_positivity leaves undershoots down to -1e-12 in place, so the
    # negative-entry conventions are reachable; none of them may warn
    x = np.array([0.0, 0.0, 0.5, 0.5, -1e-13, 0.0, 0.5])
    y = np.array([0.0, 0.5, 0.0, 0.5, -1e-13, -1e-13, -1e-13])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        xlogy, rel = _xlogy(x, y), _rel_entr(x, y)
    # 0 ln 0 = 0, and 0 ln y = 0 for any y but NaN
    assert xlogy[0] == 0.0 and xlogy[1] == 0.0 and xlogy[5] == 0.0
    assert xlogy[2] == -math.inf and xlogy[3] == 0.5 * math.log(0.5)
    assert np.isnan(xlogy[4]) and np.isnan(xlogy[6])
    assert rel[0] == 0.0 and rel[1] == 0.0 and rel[3] == 0.0
    # mass where the reference vanishes or goes negative is infinitely far
    assert rel[2] == math.inf and rel[4] == math.inf and rel[6] == math.inf
    assert rel[5] == math.inf
    assert np.isnan(_xlogy(np.array([0.0]), np.array([math.nan])))[0]
    assert np.isnan(_rel_entr(np.array([math.nan, -1.0]), np.array([-1.0, math.nan]))).all()


def test_entropy_primitives_match_scipy():
    special = pytest.importorskip("scipy.special")
    rng = np.random.default_rng(22)
    c = rng.random((3, 4096))
    c[:, ::97] = 0.0
    near = c * (1.0 + 1e-3 * rng.standard_normal(c.shape))
    far = rng.random(c.shape)
    # ratios that under- and overflow take the ln x - ln y branch
    extreme = np.array([1e-300, 1e300, 5e-324, 1.0])
    fields = [(c, c), (c, near), (c, far), (extreme, extreme[::-1])]
    for x, y in fields:
        # both sides take the same branches (log1p for x/y in (1/2, 2)), so
        # they differ only by the rounding of numpy's log and log1p against
        # the C library's: a few ulp of the result, even where near-equal
        # fields make it tiny
        pairs = ((_xlogy(x, y), special.xlogy(x, y)), (_rel_entr(x, y), special.rel_entr(x, y)))
        for ours, ref in pairs:
            assert np.all(np.abs(ours - ref) <= 4 * np.spacing(np.abs(ref)))


def test_symmetrized_entropy_matches_sum_of_relatives():
    a = constant_state(GRID, [0.6, 0.4])
    b = constant_state(GRID, [0.4, 0.6])
    expected = 0.4 * math.log(1.5)  # (0.2) ln(0.6/0.4) twice
    val = _symmetrized_entropy(a.c, b.c, GRID)
    assert abs(val - expected) < 1e-14
    both_ways = _relative_entropy(a.c, b.c, GRID) + _relative_entropy(b.c, a.c, GRID)
    assert abs(val - both_ways) < 1e-14


def test_symmetrized_entropy_vanishing_conventions():
    a = constant_state(GRID, [1.0, 0.0])
    b = constant_state(GRID, [0.5, 0.5])
    assert _symmetrized_entropy(a.c, b.c, GRID) == math.inf
    # where both vanish the limit is ambiguous, and it counts as infinite too
    both = constant_state(GRID, [1.0, 0.0])
    assert _symmetrized_entropy(both.c, both.c.copy(), GRID) == math.inf


def test_regularized_entropy_value_and_guard():
    a = constant_state(GRID, [0.6, 0.4])
    b = constant_state(GRID, [0.4, 0.6])
    delta = 0.05
    expected = 2 * 0.2 * math.log(0.65 / 0.45)
    assert abs(regularized_relative_entropy(a, b, delta) - expected) < 1e-14
    with pytest.raises(DeltaOutOfRange):
        regularized_relative_entropy(a, b, 0.0)


def test_renormalized_profiles():
    s = np.array([0.4, 0.6])
    assert np.array_equal(identity_renorm().f(s), s)
    assert np.array_equal(square_renorm().f(s), s**2)
    assert np.array_equal(log_shift_renorm(0.05).f(s), np.log(s + 0.05))
    with pytest.raises(DeltaOutOfRange):
        log_shift_renorm(-1.0)


def test_renorm_antiderivatives():
    log3 = log_shift_renorm(0.3)
    assert abs(log3.antideriv(np.array(0.0))) < 1e-15
    # numeric derivative of the primitive recovers the profile
    s = np.linspace(0.1, 0.9, 7)
    h = 1e-6
    num = (log3.antideriv(s + h) - log3.antideriv(s - h)) / (2 * h)
    assert np.abs(num - log3.f(s)).max() < 1e-9
    state = constant_state(GRID, [0.5, 0.5])
    val = _renormalized_entropy(state.c, square_renorm(), GRID)
    assert abs(val - 2 * 0.125 / 3.0) < 1e-14


def test_dissipation_hand_case_and_invariances():
    grid = PeriodicGrid((8,))
    D = DiffusionMatrix.uniform(2, 1.0)
    w = np.ones((2, 8))
    u = np.zeros((2, 1, 8))
    ub = np.zeros((2, 1, 8))
    u[0] += 1.0  # velocity difference gap of 1 between the two species
    q = dissipation(w, w, u, ub, D, grid=grid)
    assert abs(q - 2.0) < 1e-14
    # adding one common field to every species leaves Q unchanged
    shift = np.sin(2 * math.pi * np.arange(8) / 8.0)
    q2 = dissipation(w, w, u + shift, ub, D, grid=grid)
    assert abs(q2 - q) < 1e-12
    # quadratic in the velocity gap
    q4 = dissipation(w, w, 2.0 * u, 2.0 * ub, D, grid=grid)
    assert abs(q4 - 4.0 * q) < 1e-12
    with pytest.raises(Exception):
        dissipation(w, w, u, ub, D)  # the grid is required


def test_quadratic_log_gap_and_counterexamples():
    assert quadratic_log_gap(0.5, 0.25) >= 0
    assert quadratic_log_gap(2.0, 0.1) >= 0
    assert quadratic_log_gap(1.0, 1.0) >= 0
    # pairs with logarithmic mean above one violate the plain inequality
    assert not quadratic_log_gap(1.5, 1.2) >= 0
    assert not quadratic_log_gap(1.05, 1.0) >= 0
    gap = quadratic_log_gap(np.array([1.5]), np.array([1.2]))
    hand = (1.5 - 1.2) * (math.log(1.5) - math.log(1.2)) - (1.5 - 1.2) ** 2
    assert abs(gap[0] - hand) < 1e-15
    assert hand < 0.0
    # the constant-2 version does hold on (0, 2]^2
    rng = np.random.default_rng(9)
    d = rng.uniform(1e-3, 2.0, size=20000)
    db = rng.uniform(1e-3, 2.0, size=20000)
    assert np.all((d - db) ** 2 <= 2.0 * (d - db) * (np.log(d) - np.log(db)) + 1e-15)


def make_pair_fields(rng, grid, n, delta):
    g = -np.log(rng.uniform(size=(n,) + grid.cells))
    c = g / g.sum(axis=0)
    g2 = -np.log(rng.uniform(size=(n,) + grid.cells))
    cb = g2 / g2.sum(axis=0)
    d, dbar = c + delta, cb + delta
    v = rng.normal(size=(n, grid.dim) + grid.cells)
    vbar = rng.normal(size=(n, grid.dim) + grid.cells)
    # project onto the weighted zero-sum constraint sum_i d_i v_i = 0
    v -= (d[:, None] * v).sum(axis=0) / d.sum(axis=0)
    vbar -= (dbar[:, None] * vbar).sum(axis=0) / dbar.sum(axis=0)
    return d, dbar, v, vbar


def test_error_terms_vanish_for_identical_fields():
    grid = PeriodicGrid((12,))
    rng = np.random.default_rng(10)
    D = DiffusionMatrix.uniform(3, 1.0)
    d, _, v, _ = make_pair_fields(rng, grid, 3, 0.05)
    terms = error_terms(d, d, v, v, D, 0.05, grid)
    assert terms.j1 == terms.j2 == terms.j3 == terms.j4 == 0.0
    assert terms.s_dissipation == 0.0 and terms.r_distance == 0.0
    assert terms.respects_bounds()


def test_error_terms_bounds_hold_on_random_pairs():
    grid = PeriodicGrid((10,))
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(2, 5))
        vals = np.exp(rng.uniform(math.log(0.5), math.log(2.0), size=(n, n)))
        D = DiffusionMatrix(np.triu(vals, 1) + np.triu(vals, 1).T)
        delta = float(rng.uniform(0.02, 0.3))
        d, dbar, v, vbar = make_pair_fields(rng, grid, n, delta)
        terms = error_terms(d, dbar, v, vbar, D, delta, grid)
        assert terms.respects_bounds(), (terms.j1 + terms.j2, terms.bound_j12)
        assert terms.q_shifted >= terms.q_lower_bound - 1e-12 * max(
            1.0, abs(terms.q_lower_bound)
        )


def test_dissipation_bound_is_positive_and_holds_on_near_equal_twins():
    # shifted compositions a convex step of 1e-3 apart, so R is small and the
    # lower bound mu S - (2 n mu / delta^2) F^2 R stays positive: unlike on
    # unrelated fields, where it is negative and Q >= bound cannot fail
    rng = np.random.default_rng(108)
    ratios = []
    for _ in range(300):
        n = int(rng.integers(2, 6))
        grid = PeriodicGrid((10,)) if rng.uniform() < 0.5 else PeriodicGrid((5, 4))
        vals = np.exp(rng.uniform(math.log(0.5), math.log(2.0), size=(n, n)))
        D = DiffusionMatrix(np.triu(vals, 1) + np.triu(vals, 1).T)
        delta = float(rng.uniform(0.02, 0.3))
        d, other, v, vbar = make_pair_fields(rng, grid, n, delta)
        dbar = 0.999 * d + 0.001 * other
        vbar -= (dbar[:, None] * vbar).sum(axis=0) / dbar.sum(axis=0)
        terms = error_terms(d, dbar, v, vbar, D, delta, grid)
        assert terms.q_lower_bound > 0.0
        assert terms.q_shifted >= terms.q_lower_bound - 1e-12 * terms.q_lower_bound
        ratios.append(terms.q_shifted / terms.q_lower_bound)
    # the bound is close on some draws, so a Q off by a few percent fails
    assert min(ratios) < 1.1


def test_error_terms_delta_guards():
    grid = PeriodicGrid((8,))
    D = DiffusionMatrix.uniform(2, 1.0)
    z = np.full((2, 8), 0.5)
    v = np.zeros((2, 1, 8))
    with pytest.raises(DeltaOutOfRange):
        error_terms(z, z, v, v, D, 0.0, grid)
    with pytest.raises(DeltaOutOfRange):
        error_terms(z, z, v, v, D, 1.0, grid)


# Pair-loop definitions of the dissipation, the balance right-hand side and
# the cross terms, kept as the reference for the contracted forms. They
# compute in the dtype of their inputs, so long-double fields give a
# long-double reference.
def quad(cells, grid):
    return cells.sum(axis=tuple(range(-grid.dim, 0))) * cells.dtype.type(grid.cell_volume)


def loop_dissipation(w, wb, du, K, grid):
    n = w.shape[0]
    cells = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            rel2 = ((du[i] - du[j]) ** 2).sum(axis=0)
            cells = cells + K[i, j] * (w[i] * w[j] + wb[i] * wb[j]) * rel2
    return quad(cells, grid)


def loop_entropy_rhs(c, cb, u, ub, K, grid):
    n = c.shape[0]
    du = u - ub
    cells = 0.0
    for i in range(n):
        for j in range(n):
            mix = c[i] * (ub[i] - ub[j]) + cb[i] * (u[i] - u[j])
            cells = cells + K[i, j] * (c[j] - cb[j]) * (du[i] * mix).sum(axis=0)
    return -quad(cells, grid)


def loop_cross_terms(d, dbar, v, vbar, K, delta, grid):
    n = d.shape[0]
    dv, dd = v - vbar, d - dbar
    j1 = j2 = j4 = 0.0
    for i in range(n):
        for j in range(n):
            j1 = j1 + K[i, j] * d[i] * dd[j] * (dv[i] * (vbar[i] - vbar[j])).sum(axis=0)
            j2 = j2 + K[i, j] * dbar[i] * dd[j] * (dv[i] * (v[i] - v[j])).sum(axis=0)
            mix = (d[j] / d[i]) * v[j] - (dbar[j] / dbar[i]) * vbar[j]
            j4 = j4 + K[i, j] * (d[i] + dbar[i]) * (dv[i] * mix).sum(axis=0)
    row = K.sum(axis=1)
    j3 = sum(row[i] * (d[i] + dbar[i]) * (dv[i] ** 2).sum(axis=0) for i in range(n))
    return (
        -quad(j1, grid),
        -quad(j2, grid),
        delta * quad(j3, grid),
        -delta * quad(j4, grid),
    )


@pytest.mark.parametrize("cells", [(12,), (6, 5)])
@pytest.mark.parametrize("n", [2, 3, 5])
def test_einsum_forms_match_pair_loops(n, cells):
    grid = PeriodicGrid(cells)
    rng = np.random.default_rng(12 + n)
    vals = np.exp(rng.uniform(math.log(0.5), math.log(2.0), size=(n, n)))
    D = DiffusionMatrix(np.triu(vals, 1) + np.triu(vals, 1).T)
    K = D.inv
    delta = 0.07
    for _ in range(5):
        d, dbar, v, vbar = make_pair_fields(rng, grid, n, delta)
        c, cb = d - delta, dbar - delta
        close = lambda got, ref: abs(got - ref) <= 1e-13 * abs(ref)
        assert close(dissipation(d, dbar, v, vbar, D, grid=grid),
                     loop_dissipation(d, dbar, v - vbar, K, grid))
        assert close(_entropy_rhs(c, cb, v, vbar, D, grid),
                     loop_entropy_rhs(c, cb, v, vbar, K, grid))
        terms = error_terms(d, dbar, v, vbar, D, delta, grid)
        ref = loop_cross_terms(d, dbar, v, vbar, K, delta, grid)
        for got, want in zip((terms.j1, terms.j2, terms.j3, terms.j4), ref):
            assert close(got, want), (got, want)


@pytest.mark.parametrize("amplitude", [1e-4, 1e-7])
@pytest.mark.parametrize("cells", [(16,), (6, 5)])
@pytest.mark.parametrize("n", [2, 3, 5])
def test_pair_sums_stay_accurate_on_nearly_equal_twins(n, cells, amplitude):
    # twin fields differ by about the perturbation amplitude, so their
    # differences carry a relative rounding error of order eps / amplitude;
    # C bounds the error against long-double pair loops in that unit. The
    # worst value measured is about 0.013, for j4. Splitting j4's bracket into
    # (K d v)_i / d_i - (K dbar vbar)_i / dbar_i, two large terms that cancel,
    # exceeds C.
    C = 0.05
    rng = np.random.default_rng(100 + n)
    vals = np.exp(rng.uniform(math.log(0.5), math.log(2.0), size=(n, n)))
    D = DiffusionMatrix(np.triu(vals, 1) + np.triu(vals, 1).T)
    grid = PeriodicGrid(cells)
    delta = 0.05
    sc = Scenario(n=n, D=D, grid=grid, t_final=8 * 0.25 * max_stable_dt(grid, D),
                  amplitude=0.3, delta=delta, cadence=2)
    base, twin = run_lockstep(
        [sc, replace(sc, perturbation=Perturbation(amplitude=amplitude, mode=1))])
    K = D.inv.astype(np.longdouble)
    got, ref = [], []
    for c, cb, J, Jb in zip(base.states, twin.states,
                            fresh_snapshot_fluxes(base), fresh_snapshot_fluxes(twin)):
        u, ub = _velocities(J, c), _velocities(Jb, cb)
        d, dbar = c + delta, cb + delta
        v, vbar = _velocities(J, d), _velocities(Jb, dbar)
        terms = error_terms(d, dbar, v, vbar, D, delta, grid)
        got.append([dissipation(c, cb, u, ub, D, grid=grid), _entropy_rhs(c, cb, u, ub, D, grid),
                    terms.j1, terms.j2, terms.j3, terms.j4])
        c, cb, u, ub, d, dbar, v, vbar = (
            np.asarray(x, np.longdouble) for x in (c, cb, u, ub, d, dbar, v, vbar)
        )
        ref.append([loop_dissipation(c, cb, u - ub, K, grid),
                    loop_entropy_rhs(c, cb, u, ub, K, grid),
                    *loop_cross_terms(d, dbar, v, vbar, K, delta, grid)])
    got, ref = np.array(got, np.longdouble), np.array(ref)
    err = np.abs(got - ref).max(axis=0) / np.abs(ref).max(axis=0)
    assert np.all(err <= C * np.finfo(float).eps / amplitude), err


def test_velocities_floor_and_shapes():
    w = np.array([0.5, 0.0, 0.25])
    floor = 1e-3
    safe = np.maximum(w, floor)
    j = np.array([1.0, -2.0, 1.0])
    assert np.array_equal(_velocities(j, w, floor), j / safe)
    j2 = np.arange(6.0).reshape(3, 2)
    assert np.array_equal(_velocities(j2, w, floor), j2 / safe[:, None])
    # fields: one weight per cell, shared by every direction component
    w3 = np.stack([w * (1 + k) for k in range(4)], axis=-1).reshape(3, 2, 2)
    j3 = np.arange(24.0).reshape(3, 2, 2, 2)
    got = _velocities(j3, w3, floor)
    assert got.shape == j3.shape
    for i in range(3):
        for a in range(2):
            assert np.array_equal(got[i, a], j3[i, a] / np.maximum(w3[i], floor))


def small_scenario(**kw):
    D = DiffusionMatrix([[0.0, 1.0, 2.0], [1.0, 0.0, 3.0], [2.0, 3.0, 0.0]])
    args = dict(n=3, D=D, grid=PeriodicGrid((24,)), t_final=0.001,
                delta=0.05, cadence=2, amplitude=0.2)
    args.update(kw)
    return Scenario(**args)


def test_identity_residual_small_for_twin_pair():
    sc = small_scenario()
    base, twin = run_lockstep(
        [sc, replace(sc, perturbation=Perturbation(amplitude=1e-3, mode=1))])
    series = identity_series(base, twin)
    dh_sym = series.h_sym[-1] - series.h_sym[0]
    # the balance nearly cancels; the defect is scheme error, well below the terms
    assert series.residuals()[-1] < 0.1 * max(abs(series.q_cumulative[-1]), abs(dh_sym))
    assert series.q_cumulative[0] == series.rhs_cumulative[0] == 0.0


def test_identity_residual_refines():
    # joint grid/time refinement: the defect drops about 4x per level
    base = small_scenario(grid=PeriodicGrid((16,)), dt=0.001 / 8, cadence=1)
    pert = Perturbation(amplitude=1e-3, mode=1)
    residuals = []
    for k in range(3):
        sc = base.refine(2**k)
        pair = run_lockstep([sc, replace(sc, perturbation=pert)])
        residuals.append(identity_series(*pair).residuals()[-1])
    orders = [math.log2(residuals[k] / residuals[k + 1]) for k in range(2)]
    assert min(orders) > 1.5, (residuals, orders)


def test_identity_residual_rejects_mismatched_pairs():
    sc = small_scenario()
    a = run(sc)
    b = run(small_scenario(cadence=4))
    with pytest.raises(GridMismatch, match="snapshot times"):
        identity_series(a, b)


def test_certificate_identical_trajectories():
    sc = small_scenario()
    traj = run(sc)
    cert = gronwall_certificate(traj, traj, sc.delta)
    assert cert.holds_master and cert.holds_envelope
    cols = cert.diagnostics
    assert np.all(cols["r_distance"] == 0.0) and np.all(cols["regularized_entropy"] == 0.0)
    assert not cert.constants.admissible  # 0.05 sits far above the certified window


def test_certificate_perturbed_pair_holds():
    sc = small_scenario()
    base, twin = run_lockstep(
        [sc, replace(sc, perturbation=Perturbation(amplitude=1e-4, mode=1))])
    cert = gronwall_certificate(base, twin, sc.delta)
    assert cert.holds_master
    assert cert.holds_envelope
    assert cert.constants.flux_bound > 0.0
    assert cert.constants.delta_max < sc.delta
    assert len(cert.diagnostics["regularized_entropy"]) == len(base.times)


def test_certificate_admissible_delta_branch():
    sc = small_scenario()
    base, twin = run_lockstep(
        [sc, replace(sc, perturbation=Perturbation(amplitude=1e-4, mode=1))])
    # the cap depends only on the diffusivities, not on the shift itself
    cap = gronwall_certificate(base, twin, sc.delta).constants.delta_max
    cert = gronwall_certificate(base, twin, 0.5 * cap)
    assert cert.constants.admissible
    assert cert.holds_master and cert.holds_envelope


def test_certificate_requires_positive_delta():
    sc = small_scenario()
    traj = run(sc)
    with pytest.raises(DeltaOutOfRange):
        gronwall_certificate(traj, traj, 0.0)


@pytest.mark.parametrize("delta", [1.5, 1.0, 0.0])
def test_certificate_refuses_a_delta_out_of_range_before_its_pair_pass(monkeypatch, delta):
    sim_module = importlib.import_module("msdiff.sim")
    traj = run(small_scenario())
    calls = []
    real = sim_module._face_divergence

    def counted(c, D, grid):
        calls.append(c.shape)
        return real(c, D, grid)

    monkeypatch.setattr(sim_module, "_face_divergence", counted)
    with pytest.raises(DeltaOutOfRange, match="must lie in"):
        gronwall_certificate(traj, traj, delta)
    assert calls == []


def test_certificate_refuses_a_delta_whose_rate_overflows():
    # delta**4 = 1e-320 is positive, so stability_constants takes it, but
    # c5 / delta**4 is inf, and inf * 0 would fill the checks with NaN
    sc = small_scenario()
    base, twin = run_lockstep([sc, replace(sc, perturbation=Perturbation(amplitude=1e-3, mode=1))])
    with pytest.raises(DeltaOutOfRange, match="overflows"):
        gronwall_certificate(base, twin, 1e-80)


# The per-snapshot loops that the batched trajectory functionals replaced,
# kept as their references, over each snapshot's fluxes solved alone.
def loop_identity_series(traj_a, traj_b, D):
    h_vals, q_vals, rhs_vals = [], [], []
    J_a, J_b = fresh_snapshot_fluxes(traj_a), fresh_snapshot_fluxes(traj_b)
    for k in range(len(traj_a.times)):
        a, b = traj_a.state(k), traj_b.state(k)
        u = _velocities(J_a[k], a.c)
        ub = _velocities(J_b[k], b.c)
        q_vals.append(dissipation(a.c, b.c, u, ub, D, a.grid))
        rhs_vals.append(_entropy_rhs(a.c, b.c, u, ub, D, a.grid))
        h_vals.append(_symmetrized_entropy(a.c, b.c, a.grid))
    return np.array(h_vals), np.array(q_vals), np.array(rhs_vals)


def loop_certificate_series(traj_a, traj_b, delta):
    J_a, J_b = fresh_snapshot_fluxes(traj_a), fresh_snapshot_fluxes(traj_b)
    fb = 0.0
    for fluxes in (J_a, J_b):
        for J in fluxes:
            fb = max(fb, float(np.sqrt((J**2).sum(axis=1)).max()))
    f_series, r_series, s_series = [], [], []
    for idx in range(len(traj_a.times)):
        a, b = traj_a.state(idx), traj_b.state(idx)
        d, dbar = a.c + delta, b.c + delta
        dv = _velocities(J_a[idx], d) - _velocities(J_b[idx], dbar)
        f_series.append(regularized_relative_entropy(a, b, delta))
        r_series.append(float(integrate(((a.c - b.c) ** 2).sum(axis=0), a.grid)))
        gap = (d + dbar) * (dv**2).sum(axis=1)
        s_series.append(float(integrate(gap.sum(axis=0), a.grid)))
    return fb, np.array(f_series), np.array(r_series), np.array(s_series)


def loop_twin_columns(base, twin, cert, D, delta):
    """Mixing, relative and renormalized entropy and j1..j4 per snapshot."""
    beta = log_shift_renorm(delta)
    J, Jb = fresh_snapshot_fluxes(base), fresh_snapshot_fluxes(twin)
    rows = []
    for k in range(len(base.times)):
        a, b = base.state(k), twin.state(k)
        d, dbar = a.c + delta, b.c + delta
        v = _velocities(J[k], d)
        vbar = _velocities(Jb[k], dbar)
        terms = error_terms(d, dbar, v, vbar, D, delta, a.grid, flux_bound=cert.constants.flux_bound)
        rows.append([
            entropy(a), _relative_entropy(a.c, b.c, a.grid), _renormalized_entropy(a.c, beta, a.grid),
            terms.j1, terms.j2, terms.j3, terms.j4,
        ])
    return np.array(rows)


def assert_series_close(got, ref):
    """Equal to 1e-13 relative to the largest entry of the reference series."""
    got, ref = np.asarray(got, float), np.asarray(ref, float)
    assert got.shape == ref.shape
    assert np.all(np.abs(got - ref) <= 1e-13 * np.abs(ref).max()), (got, ref)


@pytest.mark.parametrize("blocks", ["one", "several"])
@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("scheme,cadence", [("euler", 1), ("euler", 3), ("heun", 1), ("heun", 3)])
@pytest.mark.parametrize("cells", [(12,), (6, 5)])
def test_batched_trajectory_functionals_match_snapshot_loops(
    monkeypatch, cells, scheme, cadence, n, blocks
):
    if blocks == "several":  # blocks of one or two snapshots
        monkeypatch.setattr(importlib.import_module("msdiff.sim"), "_BLOCK_VALUES",
                            2 * n * n * math.prod(cells))
    rng = np.random.default_rng(7 * n + len(cells))
    vals = np.exp(rng.uniform(math.log(0.5), math.log(2.0), size=(n, n)))
    D = DiffusionMatrix(np.triu(vals, 1) + np.triu(vals, 1).T)
    grid = PeriodicGrid(cells)
    sc = Scenario(n=n, D=D, grid=grid, t_final=10 * 0.25 * max_stable_dt(grid, D),
                  amplitude=0.3, delta=0.05, scheme=scheme, cadence=cadence)
    base, twin = run_lockstep(
        [sc, replace(sc, perturbation=Perturbation(amplitude=0.02, mode=1))])
    cert = gronwall_certificate(base, twin, sc.delta)
    assert len(base.times) >= 4

    series = identity_series(base, twin)
    for got, ref in zip((series.h_sym, series.q_values, series.rhs_values),
                        loop_identity_series(base, twin, D)):
        assert_series_close(got, ref)

    fb, f_ref, r_ref, s_ref = loop_certificate_series(base, twin, sc.delta)
    cols = cert.diagnostics
    assert cert.constants.flux_bound == fb
    for key, ref in zip(("regularized_entropy", "r_distance", "s_dissipation"), (f_ref, r_ref, s_ref)):
        assert_series_close(cols[key], ref)

    keys = ("entropy", "relative_entropy", "renorm_entropy", "j1", "j2", "j3", "j4")
    ref = loop_twin_columns(base, twin, cert, D, sc.delta)
    for k, key in enumerate(keys):
        assert_series_close(cols[key], ref[:, k])
    assert cols["time"].tolist() == base.times


def test_pair_pass_refuses_a_d_that_is_not_the_runs_own():
    # D belongs to the pair: runs of two systems are refused, in either order
    sc = small_scenario()
    base = run(sc)
    other = DiffusionMatrix([[0.0, 1.0, 2.0], [1.0, 0.0, 4.0], [2.0, 4.0, 0.0]])
    mixed = run(replace(sc, D=other, dt=base.dt))
    for pair in ((base, mixed), (mixed, base)):
        with pytest.raises(ValueError, match="different diffusion matrices"):
            identity_series(*pair)
        with pytest.raises(ValueError, match="different diffusion matrices"):
            gronwall_certificate(*pair, sc.delta)


def pair_runs(kind, cells):
    """A twin pair (Heun, every step) or an identity pair (Euler, cadence
    2) of 12 steps."""
    scheme, cadence = {"twin": ("heun", 1), "identity": ("euler", 2)}[kind]
    sc = small_scenario(grid=PeriodicGrid(cells), scheme=scheme, cadence=cadence)
    sc = replace(sc, t_final=12 * 0.25 * max_stable_dt(sc.grid, sc.D))
    pert = Perturbation(amplitude=1e-3, mode=1)
    return sc, run_lockstep([sc, replace(sc, perturbation=pert)])


def pair_pass(sc, base, twin):
    """Every certificate diagnostic and identity-series field of a pair."""
    cert = gronwall_certificate(base, twin, sc.delta)
    series = identity_series(base, twin)
    return {**cert.diagnostics, **{f"series.{k}": v for k, v in vars(series).items()}}


@pytest.mark.parametrize("blocks", ["one", "several"])
@pytest.mark.parametrize("cells", [(24,), (6, 5)])
@pytest.mark.parametrize("kind", ["twin", "identity"])
def test_pair_pass_solves_fluxes_per_block_and_keeps_none(monkeypatch, kind, cells, blocks):
    sim_module = importlib.import_module("msdiff.sim")
    if blocks == "several":  # blocks of three snapshots, the last one partial
        monkeypatch.setattr(sim_module, "_BLOCK_VALUES", 3 * 9 * len(cells) * math.prod(cells))
    calls = []
    real = sim_module._face_divergence

    def counted(c, D, grid):
        calls.append(c.shape)
        return real(c, D, grid)

    sc, (base, twin) = pair_runs(kind, cells)
    monkeypatch.setattr(sim_module, "_face_divergence", counted)
    pair_pass(sc, base, twin)
    S = len(base.times)
    per = 3 if blocks == "several" else S
    sizes = [min(per, S - lo) for lo in range(0, S, per)]
    # two passes, each one face solve of each run's block, block by block
    assert [shape[1] for shape in calls] == 2 * [size for size in sizes for _ in (base, twin)]


def test_pair_pass_memory_stays_below_one_runs_fluxes(monkeypatch):
    # blocks of four snapshots: the pass may hold its (S,) columns and one
    # block's temporaries, not a whole (S, n, dim, *cells) flux array
    grid = PeriodicGrid((256,))
    monkeypatch.setattr(importlib.import_module("msdiff.sim"), "_BLOCK_VALUES",
                        4 * 9 * math.prod(grid.cells))
    sc = small_scenario(grid=grid, cadence=1)
    sc = replace(sc, t_final=400 * 0.25 * max_stable_dt(grid, sc.D))
    base, twin = run_lockstep(
        [sc, replace(sc, perturbation=Perturbation(amplitude=1e-3, mode=1))])
    flux_bytes = base.states.nbytes * grid.dim
    assert len(base.times) > 300
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        gronwall_certificate(base, twin, sc.delta)
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert peak < flux_bytes, (peak, flux_bytes)
