"""Batched force-flux inversion against closed forms and dense oracles."""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msdiff import flux
from msdiff._scratch import _held as held_scratch
from msdiff.flux import (
    DeltaOutOfRange,
    DiffusionMatrix,
    SingularComposition,
    solve_fluxes_batch,
    solve_fluxes_lstsq,
    stability_constants,
    _shift_correction,
    _symmetric_friction,
)
from msdiff.suites import _gap_sides


def random_problem(rng, n):
    vals = np.exp(rng.uniform(math.log(0.1), math.log(10.0), size=(n, n)))
    d = np.triu(vals, 1)
    D = DiffusionMatrix(d + d.T)
    g = -np.log(rng.uniform(size=n))
    c = g / g.sum()
    grad = rng.normal(size=(n, 3))
    grad -= grad.mean(axis=0, keepdims=True)
    return D, c, grad


def _solve_at_point(c, grad, D):
    """Fluxes at one composition c (n,) for the gradient columns grad (n, k):
    each column is one point of a batch that broadcasts c. Returns (n, k)."""
    return solve_fluxes_batch(np.broadcast_to(c, (grad.shape[1], len(c))), grad.T, D)[0].T


def _friction(c, K):
    """Force-flux matrices M = diag(c K) - diag(c) K of (m, n) positive
    compositions, as diag(s) A diag(s)^-1 of the symmetric friction A."""
    s, A = _symmetric_friction(c, K)
    return s[:, :, None] * A / s[:, None, :]


def _balance_residual(c, grad, j, D):
    """Max-norm residual |M j + grad| of the force-flux balance at a point."""
    M = _friction(c[None, :], D.inv)[0]
    return float(np.abs(M @ j + grad).max())


def _bordered_reference(c, grad, D):
    """The bordered LAPACK solve (M + 1) x = b over a batch, b the centered -grad."""
    K = D.inv
    n = c.shape[1]
    M = -c[:, :, None] * K[None, :, :]
    idx = np.arange(n)
    M[:, idx, idx] = c @ K
    b = -grad
    b = b - b.mean(axis=-1, keepdims=True)
    return np.linalg.solve(M + 1.0, b[..., None])[..., 0]


def _batch_problem(rng, n, m):
    """Random D and m compositions: interior rows, then every vertex, then
    edge rows with one species absent, and centered gradients."""
    D, _, _ = random_problem(rng, n)
    g = -np.log(rng.uniform(size=(m, n)))
    c = g / g.sum(axis=1, keepdims=True)
    c[:n] = np.eye(n)
    for k in range(n):
        row = c[n + k]
        row[k] = 0.0
        c[n + k] = row / row.sum()
    grad = rng.normal(size=(m, n)) * np.exp(rng.uniform(-3.0, 3.0, size=(m, 1)))
    grad -= grad.mean(axis=1, keepdims=True)
    return D, c, grad


def _shifted_velocities(c, delta, grad_sqrt_d, D):
    """Reference solve of the shifted system for velocities v with
    sum_i d_i v_i = 0, d = c + delta, from gradients of sqrt(d_i), delta > 0.
    Algebraically v = J / (c + delta) at matched data."""
    d = c + delta
    s, A = _symmetric_friction(d[None, :], D.inv)
    G = A[0] + delta * _shift_correction(s, D.inv)[0]
    s = s[0]
    rhs = -2.0 * grad_sqrt_d
    # project onto the hyperplane orthogonal to sqrt(d); the bordered term
    # sqrt(d) sqrt(d)' then pins the unique solution with s . w = 0
    rhs = rhs - s[:, None] * (s @ rhs)[None, :] / d.sum()
    w = np.linalg.solve(G + np.outer(s, s), rhs)
    return w / s[:, None]


def test_diffusion_matrix_validation():
    with pytest.raises(ValueError):
        DiffusionMatrix([[0.0, 1.0], [2.0, 0.0]])  # asymmetric
    with pytest.raises(ValueError):
        DiffusionMatrix([[0.0, -1.0], [-1.0, 0.0]])
    with pytest.raises(ValueError):
        DiffusionMatrix([[0.0]])
    D = DiffusionMatrix([[7.0, 2.0], [2.0, 7.0]])  # diagonal is ignored
    assert D.d[0, 0] == 0.0 and D.inv[0, 1] == 0.5
    assert D.mu == 0.5 and D.big_m == 0.5


def test_diffusion_matrix_from_pairs():
    D = DiffusionMatrix.from_pairs(3, {(0, 1): 1.0, (0, 2): 2.0, (1, 2): 4.0})
    assert D.d[2, 1] == 4.0
    assert D.mu == 0.25 and D.big_m == 1.0
    with pytest.raises(ValueError, match="missing"):
        DiffusionMatrix.from_pairs(3, {(0, 1): 1.0})
    with pytest.raises(ValueError, match="conflicting"):
        DiffusionMatrix.from_pairs(2, {(0, 1): 1.0, (1, 0): 2.0})
    with pytest.raises(ValueError, match="diagonal"):
        DiffusionMatrix.from_pairs(2, {(1, 1): 1.0})


def test_friction_system_closed_form():
    # two species, D12 = 1, c = (0.5, 0.5): M = [[0.5, -0.5], [-0.5, 0.5]]
    D = DiffusionMatrix.uniform(2, 1.0)
    M = _friction(np.array([[0.5, 0.5]]), D.inv)[0]
    assert np.abs(M - np.array([[0.5, -0.5], [-0.5, 0.5]])).max() < 1e-15


def test_friction_system_column_sums_vanish():
    rng = np.random.default_rng(0)
    for n in (2, 3, 5):
        D, c, _ = random_problem(rng, n)
        M = _friction(c[None, :], D.inv)[0]
        # the similarity of the symmetric friction is the friction matrix
        ref = np.diag(c @ D.inv) - c[:, None] * D.inv
        assert np.abs(M - ref).max() < 1e-14
        assert np.abs(M.sum(axis=0)).max() < 1e-14
        assert np.abs(M @ c).max() < 1e-14  # composition spans the kernel


def test_binary_solve_reduces_to_scalar_diffusion():
    # two species: J1 = -D12 * grad c1 exactly, at any composition
    D = DiffusionMatrix.uniform(2, 2.5)
    g = np.array([[0.4, -0.4]])
    j, _ = solve_fluxes_batch(np.array([[0.3, 0.7]]), g, D)
    assert np.abs(j - np.array([[-1.0, 1.0]])).max() < 1e-14


def test_equal_diffusivity_solve_decouples():
    # equal D: the coupled solve collapses to J_i = -D * grad c_i
    D = DiffusionMatrix.uniform(4, 3.0)
    rng = np.random.default_rng(1)
    _, c, grad = random_problem(rng, 4)
    j = _solve_at_point(c, grad, D)
    assert np.abs(j - (-3.0) * grad).max() < 1e-12


def test_solve_matches_lstsq_and_pinv_oracles():
    rng = np.random.default_rng(2)
    for n in (2, 3, 4, 6):
        for _ in range(20):
            D, c, grad = random_problem(rng, n)
            j = _solve_at_point(c, grad, D)
            assert _balance_residual(c, grad, j, D) < 1e-12
            assert np.abs(j.sum(axis=0)).max() < 1e-13
            # the oracle on one point per gradient column
            j_ls = solve_fluxes_lstsq(np.tile(c, (grad.shape[1], 1)), grad.T, D).T
            assert np.abs(j - j_ls).max() < 1e-9
            # independent reference: the zero-sum row stacked under the
            # friction system, [M; 1'] x = [-g; 0], solved by least squares
            M = _friction(c[None, :], D.inv)[0]
            A = np.vstack([M, np.ones((1, n))])
            rhs = np.vstack([-grad, np.zeros((1, grad.shape[1]))])
            j_bordered = np.linalg.lstsq(A, rhs, rcond=None)[0]
            assert np.abs(j - j_bordered).max() < 1e-9
            # pseudo-inverse solution shifted onto the zero-sum slice
            j_pi = np.linalg.pinv(M) @ (-grad)
            j_pi -= j_pi.sum(axis=0, keepdims=True) * c[:, None]
            assert np.abs(j - j_pi).max() < 1e-9


def test_solve_vector_and_scalar_shapes():
    # one gradient component is one point; an (n, dim) gradient is dim points
    D = DiffusionMatrix.uniform(3, 1.0)
    c = np.full(3, 1.0 / 3.0)
    g1 = np.array([0.2, -0.3, 0.1])
    j1, _ = solve_fluxes_batch(c[None, :], g1[None, :], D)
    assert j1.shape == (1, 3)
    j2 = _solve_at_point(c, np.stack([g1, -2.0 * g1], axis=1), D)
    assert j2.shape == (3, 2)
    assert np.abs(j2[:, 0] - j1[0]).max() < 1e-15
    assert np.abs(j2[:, 1] + 2.0 * j1[0]).max() < 1e-15


@pytest.mark.parametrize(
    "c, grad",
    [
        ([[0.5, 0.5]], [[0.1, -0.1, 0.0]]),  # two entries for three species
        ([[0.2, 0.3, 0.4, 0.1]], [[0.1, -0.1, 0.0]]),  # four
        ([[0.2, 0.3, 0.5]], [0.1, -0.1, 0.0]),  # a vector, not a stack
        ([[0.2, 0.3, 0.5]], [[0.1, -0.1]]),  # two gradients for three species
        ([[0.2, 0.3, 0.5]], [[0.1], [-0.1], [0.0]]),  # species on the wrong axis
        ([0.2, 0.3, 0.5], [0.1, -0.1, 0.0]),  # one point, not a stack
    ],
)
def test_solve_rejects_a_species_count_that_differs_from_D(c, grad):
    D = DiffusionMatrix.uniform(3, 1.0)
    # the kernel and the oracle share one check, so they refuse alike
    messages = set()
    for solve in (solve_fluxes_batch, solve_fluxes_lstsq):
        with pytest.raises(ValueError, match="species") as refused:
            solve(np.array(c), np.array(grad), D)
        assert type(refused.value) is ValueError
        messages.add(str(refused.value))
    assert len(messages) == 1


def test_batch_solve_agrees_with_pointwise():
    rng = np.random.default_rng(3)
    D, _, _ = random_problem(rng, 3)
    g = -np.log(rng.uniform(size=(50, 3)))
    c = g / g.sum(axis=1, keepdims=True)
    grad = rng.normal(size=(50, 3))
    grad -= grad.mean(axis=1, keepdims=True)
    J, res = solve_fluxes_batch(c, grad, D)
    assert res < 1e-12
    k = 17
    single, _ = solve_fluxes_batch(c[k:k + 1], grad[k:k + 1], D)
    assert np.abs(J[k] - single[0]).max() < 1e-13


@pytest.mark.parametrize("n", range(2, 9))
def test_reduced_kernel_matches_bordered_reference(n):
    rng = np.random.default_rng(20 + n)
    for _ in range(50):
        D, c, grad = _batch_problem(rng, n, 64)
        # row 2n - 1 is the edge with only the last species absent
        assert c[2 * n - 1, -1] == 0.0 and np.all(c[2 * n - 1, :-1] > 0.0)
        x, res = solve_fluxes_batch(c, grad, D)
        ref = _bordered_reference(c, grad, D)
        row_scale = np.abs(ref).max(axis=1)
        assert np.all(np.abs(x - ref).max(axis=1) <= 1e-12 * row_scale)
        assert np.abs(x.sum(axis=1)).max() <= 1e-14 * np.abs(x).max()
        assert res <= 1e-12 * max(1.0, np.abs(grad).max())


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("m", [1, 7, 512])
@pytest.mark.parametrize("kind", ["spd", "column-dominant"])
def test_eliminate_matches_lapack(n, m, kind):
    rng = np.random.default_rng(10 * n + m)
    R = rng.normal(size=(m, n, n))
    if kind == "spd":
        A = R @ np.swapaxes(R, 1, 2) + 0.1 * np.eye(n)
    else:  # columns dominant by a margin of at least 0.01 of their size
        A = R.copy()
        idx = np.arange(n)
        A[:, idx, idx] = np.abs(R).sum(axis=1) * rng.uniform(1.01, 2.0, size=(m, n))
    b = rng.normal(size=(m, n))
    ref = np.linalg.solve(A, b[..., None])[..., 0]
    # species-first copies: (n, n, m) matrices and (n, m) rows
    x = flux._eliminate(np.ascontiguousarray(A.transpose(1, 2, 0)), b.T.copy())
    scale = np.abs(ref).max(axis=1)
    assert x.shape == (n, m)
    assert np.all(np.abs(x.T - ref).max(axis=1) <= 1e-12 * scale)


def _recorded_systems(solve, c, grad, D):
    """Copies of the (n, n, k) matrix and (n, k) rows that solve (the n >= 4
    kernel or the oracle) hands to _eliminate, one pair per block of k
    points, in order; the blocks cover the batch, a lone point as a pair."""
    seen = []
    eliminate = flux._eliminate

    def recording(B, b):
        seen.append((B.copy(), b.copy()))
        return eliminate(B, b)

    with mock.patch.object(flux, "_eliminate", recording):
        solve(c, grad, D)
    solved = 2 if len(c) == 1 else len(c)
    assert [b.shape[1] for _, b in seen] == [
        sl.stop - sl.start for sl in flux._blocks(solved, c.shape[1])
    ]
    return seen


def _block_eliminate(B, b):
    """_eliminate's arithmetic in its per-pivot block-update form: every
    multiplier of pivot k as one (n - k - 1, m) block and one
    (n - k - 1, n - k - 1, m) product per pivot."""
    n = len(b)
    for k in range(n - 1):
        lower = B[k + 1:, k] / B[k, k]
        B[k + 1:, k + 1:] -= lower[:, None] * B[k, k + 1:]
        b[k + 1:] -= lower * b[k]
    for k in range(n - 1, -1, -1):
        b[k] /= B[k, k]
        b[:k] -= B[:k, k] * b[k]
    return b


def _interior_problem(rng, n, m):
    """Random D with m interior compositions and centered gradients, as
    (m, n) views of (n, m) rows."""
    D, _, _ = random_problem(rng, n)
    g = -np.log(rng.uniform(size=(n, m)))
    grad = rng.normal(size=(n, m))
    return D, (g / g.sum(axis=0)).T, (grad - grad.mean(axis=0)).T


@pytest.mark.parametrize("n", range(4, 9))
@pytest.mark.parametrize("m", [1, 7, 20_000])
@pytest.mark.parametrize("solve", [solve_fluxes_batch, solve_fluxes_lstsq], ids=["kernel", "oracle"])
def test_eliminate_is_bit_equal_to_the_block_update_form(n, m, solve):
    # the kernel's M + mu c 1' and the oracle's positive definite matrix
    D, c, grad = _interior_problem(np.random.default_rng(100 * n + m), n, m)
    systems = _recorded_systems(solve, c, grad, D)
    assert len(systems) == len(flux._blocks(m, n))
    for B, b in systems:
        B_ref, b_ref = B.copy(), b.copy()
        x = flux._eliminate(B, b)
        ref = _block_eliminate(B_ref, b_ref)
        assert np.isfinite(x).all()
        assert x.tobytes() == ref.tobytes() and B.tobytes() == B_ref.tobytes()


def _held_and_peak(fn, *args):
    """Bytes that fn(*args) leaves held (its result dropped) and its
    tracemalloc peak, both above what was held before the call."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        held, peak = tracemalloc.get_traced_memory()
        return held - base, peak - base
    finally:
        tracemalloc.stop()


def _traced_peak(fn, *args):
    """tracemalloc peak of fn(*args) above what was held before the call."""
    return _held_and_peak(fn, *args)[1]


@pytest.mark.parametrize("n", [4, 6, 8])
def test_eliminate_allocates_one_multiplier_row_and_one_product_block(monkeypatch, n):
    m = 20_000
    D, c, grad = _interior_problem(np.random.default_rng(n), n, m)
    _one_block(monkeypatch)
    [(B, b)] = _recorded_systems(solve_fluxes_lstsq, c, grad, D)
    flux._eliminate(B.copy(), b.copy())
    B, b = B.copy(), b.copy()
    # the (m,) multipliers and the (n, m) product block, nothing per pivot
    assert _traced_peak(flux._eliminate, B, b) <= (n + 1) * m * 8 + 2**16


def _one_block(monkeypatch):
    monkeypatch.setattr(flux, "_STACK_VALUES", 2**62)


def _block_bound(n, extra_rows):
    """Bytes of one (n, n, cap) stack, _eliminate's n + 1 rows and
    extra_rows more (cap,) rows, at the largest block, plus 128 KiB for
    numpy's ufunc buffers and small objects."""
    cap = flux._STACK_VALUES // (n * n)
    return (n * n + n + 1 + extra_rows) * cap * 8 + 2**17


def test_range_oracle_builds_one_matrix_stack():
    n, m = 6, 20_000
    D, c, grad = _interior_problem(np.random.default_rng(6), n, m)
    solve_fluxes_lstsq(c, grad, D)
    # the (m, n) fluxes, then per block of points: the (n, n, block) stack,
    # the (n, block) rows for s and the products, two (block,) rows and
    # _eliminate's n + 1 rows; the whole (n, n, m) stack is 5.8 MB here
    peak = _traced_peak(solve_fluxes_lstsq, c, grad, D)
    assert peak <= n * m * 8 + _block_bound(n, 2 * n + 2)


@pytest.mark.parametrize("n", range(4, 9))
@pytest.mark.parametrize("extra", ["1", "cap-1", "cap", "cap+1", "3cap+1", "20000"])
@pytest.mark.parametrize("layout", ["rows", "points"])
def test_blocked_solves_are_bit_equal_to_one_block(monkeypatch, n, extra, layout):
    budget = 4096  # caps of 256 points at n = 4 down to 64 at n = 8
    cap = budget // (n * n)
    m = {"1": 1, "cap-1": cap - 1, "cap": cap, "cap+1": cap + 1,
         "3cap+1": 3 * cap + 1, "20000": 20_000}[extra]
    D, c, grad = _interior_problem(np.random.default_rng(200 * n + m), n, m)
    if layout == "points":  # C-ordered (m, n) arrays take the copying path
        c, grad = np.ascontiguousarray(c), np.ascontiguousarray(grad)
    _one_block(monkeypatch)
    assert len(flux._blocks(m, n)) == 1
    x_ref, res_ref = solve_fluxes_batch(c, grad, D)
    o_ref = solve_fluxes_lstsq(c, grad, D)
    monkeypatch.setattr(flux, "_STACK_VALUES", budget)
    sizes = [sl.stop - sl.start for sl in flux._blocks(m, n)]
    assert sum(sizes) == m and max(sizes) - min(sizes) <= 1
    assert len(sizes) == -(-m // cap) and (len(sizes) == 1 or 2 * min(sizes) >= cap)
    x, res = solve_fluxes_batch(c, grad, D)
    o = solve_fluxes_lstsq(c, grad, D)
    assert x.tobytes() == x_ref.tobytes() and res == res_ref
    assert o.tobytes() == o_ref.tobytes()
    assert x.T.flags.c_contiguous and o.T.flags.c_contiguous


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("solve", [solve_fluxes_batch, solve_fluxes_lstsq], ids=["kernel", "oracle"])
@pytest.mark.parametrize("layout", ["rows", "points"])
def test_a_point_solved_alone_is_bit_equal_to_the_point_in_a_batch(n, solve, layout):
    # matmul rounds one column differently from a batch (the kernel from
    # four species on, the oracle from three), unless a lone point is
    # solved as a pair; the sum of the right-hand side must not follow the
    # layout either (numpy sums 8 contiguous values pairwise)
    D, c, grad = _interior_problem(np.random.default_rng(400 + n), n, 64)
    if layout == "points":
        c, grad = np.ascontiguousarray(c), np.ascontiguousarray(grad)

    def fluxes(c, grad):
        out = solve(c, grad, D)
        return out[0] if solve is solve_fluxes_batch else out

    batch = fluxes(c, grad)
    for i in range(len(c)):
        alone = fluxes(c[i:i + 1], grad[i:i + 1])
        assert alone.shape == (1, n) and alone.T.flags.c_contiguous
        assert alone.tobytes() == batch[i:i + 1].tobytes(), i


@pytest.mark.parametrize("n", [4, 6, 8])
@pytest.mark.parametrize("bad", ["zero-row", "nan-row", "inf-gradient"])
def test_a_degenerate_point_in_a_later_block_raises_as_in_one_block(monkeypatch, n, bad):
    m = 1000
    D, c, grad = _interior_problem(np.random.default_rng(300 + n), n, m)
    c, grad = c.copy(), grad.copy()
    row = 900  # past the first block of each split below
    if bad == "zero-row":
        c[row] = 0.0
    elif bad == "nan-row":
        c[row] = np.nan
    else:
        grad[row, 0] = np.inf
    _one_block(monkeypatch)
    with pytest.raises(SingularComposition) as whole:
        solve_fluxes_batch(c, grad, D)
    monkeypatch.setattr(flux, "_STACK_VALUES", 2048)
    assert len(flux._blocks(m, n)) >= 4 and flux._blocks(m, n)[0].stop <= row
    with pytest.raises(SingularComposition) as blocked:
        solve_fluxes_batch(c, grad, D)
    assert str(blocked.value) == str(whole.value)
    assert str(whole.value).startswith("force-flux residual ")


@pytest.mark.parametrize("row", [0, 130, 999])
def test_range_oracle_names_the_row_of_the_whole_batch(monkeypatch, row):
    n, m = 5, 1000
    D, c, grad = _interior_problem(np.random.default_rng(400 + row), n, m)
    c = c.copy()
    c[row, 2] = 0.0
    monkeypatch.setattr(flux, "_STACK_VALUES", 2048)
    assert len(flux._blocks(m, n)) > 10
    eliminate = mock.Mock(side_effect=flux._eliminate)
    monkeypatch.setattr(flux, "_eliminate", eliminate)
    with pytest.raises(SingularComposition, match=f"row {row} is "):
        solve_fluxes_lstsq(c, grad, D)
    # positivity is checked for the whole batch before any block is solved
    assert eliminate.call_count == 0


@pytest.mark.parametrize(
    # (cap,) rows of scratch held from call to call, and built per call
    "solve,held_rows,call_rows",
    [(solve_fluxes_batch, 2 * 6 + 2, 0), (solve_fluxes_lstsq, 0, 2 * 6 + 2)],
    ids=["kernel", "oracle"],
)
def test_n6_solves_hold_nothing_that_grows_with_the_batch(solve, held_rows, call_rows):
    n = 6
    cap = flux._STACK_VALUES // (n * n)
    beyond = {}
    for m in (20_000, 200_000):
        # (m, n) views of (n, m) rows: the solvers copy no input
        D, c, grad = _interior_problem(np.random.default_rng(m), n, m)
        held_scratch.__dict__.pop("flux", None)
        held, _ = _held_and_peak(solve, c, grad, D)
        assert held <= held_rows * cap * 8 + 2**12
        _, peak = _held_and_peak(solve, c, grad, D)  # warm
        beyond[m] = peak - n * m * 8  # less the (m, n) fluxes
        assert beyond[m] <= _block_bound(n, call_rows)
    # blocks of 4,000 and of 4,082 points: the same peak up to that difference
    assert abs(beyond[200_000] - beyond[20_000]) <= 0.05 * beyond[20_000]


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=4, max_value=8),
    st.integers(min_value=0, max_value=2**31 - 1),
    st.sampled_from(["interior", "edge", "face", "vertex"]),
)
def test_bordered_matrix_keeps_its_column_margin(n, seed, where):
    rng = np.random.default_rng(seed)
    D, _, _ = random_problem(rng, n)
    m = 16
    c = -np.log(rng.uniform(size=(m, n)))
    absent = {"interior": 0, "edge": 1, "face": n // 2, "vertex": n - 1}[where]
    for row in c:  # `absent` species of each point set to zero
        row[rng.permutation(n)[:absent]] = 0.0
    c /= c.sum(axis=1, keepdims=True)
    grad = rng.normal(size=(m, n))
    grad -= grad.mean(axis=1, keepdims=True)
    [(B, _)] = _recorded_systems(solve_fluxes_batch, c, grad, D)
    diag = np.einsum("jjm->jm", B)
    off = np.abs(B).sum(axis=0) - np.abs(diag)
    # B = M + mu c 1': every column's margin is mu times the composition sum
    floor = D.mu * c.sum(axis=1)
    assert np.all(diag - off >= floor * (1.0 - 1e-12) - 1e-14 * np.abs(B).sum(axis=0))
    assert np.all(B[~np.eye(n, dtype=bool)] <= 0.0)


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("m", [1, 7, 512])
def test_kernel_projects_the_rhs_like_a_mean(monkeypatch, n, m):
    rng = np.random.default_rng(100 * n + m)
    D, _, _ = random_problem(rng, n)
    g = -np.log(rng.uniform(size=(m, n)))
    c = g / g.sum(axis=1, keepdims=True)
    # uncentred gradients over many scales, so the projection moves every entry
    grad = rng.normal(size=(m, n)) * np.exp(rng.uniform(-20.0, 20.0, size=(m, n)))
    seen = []
    project = flux._zero_sum_rhs

    def recording(grad_rows, *buffers):
        b = project(grad_rows, *buffers)
        seen.append(b.copy())
        return b

    monkeypatch.setattr(flux, "_zero_sum_rhs", recording)
    solve_fluxes_batch(c, grad, D)
    # the mean form on the same C-ordered (n, m) rows: the layout fixes the
    # summation order, so a strided (m, n) reduction is no reference at n = 8.
    # A lone point is solved as a pair of copies.
    solved = np.repeat(grad, 2, axis=0) if m == 1 else grad
    ref = np.ascontiguousarray(-solved.T)
    ref = ref - ref.mean(axis=0)
    assert len(seen) == 1 and seen[0].tobytes() == ref.tobytes()


def _species_rows(a):
    """The same (m, n) values as a transposed view of C-ordered (n, m) rows."""
    return np.ascontiguousarray(a.T).T


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_kernel_result_does_not_depend_on_input_layout(n):
    rng = np.random.default_rng(70 + n)
    D, c, grad = _batch_problem(rng, n, 64)
    x, res = solve_fluxes_batch(c, grad, D)
    assert x.shape == (64, n)
    rows, rows_res = solve_fluxes_batch(_species_rows(c), _species_rows(grad), D)
    assert rows.tobytes() == x.tobytes() and rows_res == res
    # one composition broadcast over every point
    cb = np.broadcast_to(c[-1], c.shape)
    xb, res_b = solve_fluxes_batch(cb, grad, D)
    xc, res_c = solve_fluxes_batch(np.ascontiguousarray(cb), grad, D)
    assert xb.tobytes() == xc.tobytes() and res_b == res_c
    # every n hands back a view of (n, m) rows
    assert x.T.flags.c_contiguous and rows.T.flags.c_contiguous


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("m", [1, 2, 7, 5_000, "cap+1"])
def test_kernel_out_gets_the_bits_of_fresh_rows(n, m):
    if m == "cap+1":  # two blocks from four species on
        m = flux._STACK_VALUES // (n * n) + 1
    D, c, grad = _interior_problem(np.random.default_rng(300 * n + m), n, m)
    x_ref, res_ref = solve_fluxes_batch(c, grad, D)
    out = np.full((n, m), np.nan)
    x, res = solve_fluxes_batch(c, grad, D, out=out)
    assert x.base is out  # the (m, n) view of out, a lone point's included
    assert x.tobytes() == x_ref.tobytes() and res == res_ref


@pytest.mark.parametrize("bad", ["shape", "transposed", "dtype", "fortran", "strided",
                                 "read-only", "list"])
def test_kernel_refuses_a_bad_out_before_any_work(bad):
    n, m = 3, 8
    D, c, grad = _interior_problem(np.random.default_rng(9), n, m)
    out = {
        "shape": lambda: np.empty((n, m + 1)),
        "transposed": lambda: np.empty((m, n)),
        "dtype": lambda: np.empty((n, m), dtype=np.float32),
        "fortran": lambda: np.empty((n, m), order="F"),
        "strided": lambda: np.empty((n, 2 * m))[:, ::2],
        "read-only": lambda: np.empty((n, m)),
        "list": lambda: np.empty((n, m)).tolist(),
    }[bad]()
    if bad == "read-only":
        out.flags.writeable = False
    with mock.patch.object(flux, "_species_rows", side_effect=AssertionError("worked")) as entry:
        with pytest.raises(ValueError, match="out must be"):
            solve_fluxes_batch(c, grad, D, out=out)
    assert not entry.called


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("bad", ["zero-row", "nan-row", "inf-gradient"])
def test_kernel_rejects_degenerate_points(n, bad):
    rng = np.random.default_rng(40 + n)
    D, c, grad = _batch_problem(rng, n, max(8, 2 * n + 2))
    if bad == "zero-row":
        c[5] = 0.0
    elif bad == "nan-row":
        c[5] = np.nan
    else:
        grad[5, 0] = np.inf
    with pytest.raises(SingularComposition):
        solve_fluxes_batch(c, grad, D)
    with pytest.raises(SingularComposition):
        solve_fluxes_batch(_species_rows(c), _species_rows(grad), D)


@pytest.mark.parametrize("n", range(2, 9))
def test_range_oracle_matches_pseudo_inverse(n):
    rng = np.random.default_rng(50 + n)
    D, c, grad = _batch_problem(rng, n, 256)
    c, grad = c[2 * n:], grad[2 * n:]  # interior rows only
    x = solve_fluxes_lstsq(c, grad, D)
    # reference: the SVD pseudo-inverse of M, shifted onto the zero-sum slice
    M = _friction(c, D.inv)
    ref = np.einsum("mij,mj->mi", np.linalg.pinv(M), -grad)
    ref -= ref.sum(axis=1, keepdims=True) * c
    assert np.abs(x - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())
    assert np.abs(x.sum(axis=1)).max() <= 1e-13 * max(1.0, np.abs(x).max())


@pytest.mark.parametrize("where", ["vertex", "edge"])
def test_range_oracle_rejects_the_simplex_boundary(where):
    rng = np.random.default_rng(60)
    D, c, grad = _batch_problem(rng, 3, 12)
    # rows 0-2 are the vertices, rows 3-5 edges with one species absent
    bad = 1 if where == "vertex" else 4
    rows = np.r_[6, 7, bad, 8]
    with pytest.raises(SingularComposition, match="row 2 "):
        solve_fluxes_lstsq(c[rows], grad[rows], D)
    with pytest.raises(SingularComposition, match="row 0 "):
        solve_fluxes_lstsq(c[bad][None, :], grad[bad][None, :], D)


def test_operator_algebra_identities():
    rng = np.random.default_rng(4)
    for n in (2, 3, 5):
        D, c, _ = random_problem(rng, n)
        delta = 0.2
        d = (c + delta)[None, :]
        s, A = _symmetric_friction(d, D.inv)
        P = _shift_correction(s, D.inv)
        s, A, P = s[0], A[0], P[0]
        mass = float(d.sum())
        proj_kernel = np.outer(s, s) / mass
        proj_range = np.eye(n) - proj_kernel
        # friction is symmetric, kills sqrt(d), and the full matrix has
        # sqrt(d) as left null vector
        assert np.abs(A - A.T).max() < 1e-14
        assert np.abs(A @ s).max() < 1e-13
        assert np.abs(s @ (A + delta * P)).max() < 1e-13
        assert np.abs(proj_range @ proj_range - proj_range).max() < 1e-14
        assert np.abs(proj_kernel @ s - s).max() < 1e-13
        assert abs(mass - (1.0 + n * delta)) < 1e-12


def test_operator_friction_scales_linearly():
    rng = np.random.default_rng(5)
    D, c, _ = random_problem(rng, 3)
    d = (c + 0.3)[None, :]
    lam = float(d.sum())
    _, big = _symmetric_friction(d, D.inv)
    _, small = _symmetric_friction(d / lam, D.inv)
    assert np.abs(big - lam * small).max() < 1e-13


def test_spectral_gap_random_and_equality_case():
    rng = np.random.default_rng(6)
    for _ in range(200):
        n = int(rng.integers(2, 5))
        D, c, _ = random_problem(rng, n)
        d = (c + float(rng.uniform(0.0, 0.5)))[None, :]
        z = rng.normal(size=(1, n))
        lhs, rhs, lam2, floor = _gap_sides(d, D.inv, D.mu, z)
        assert lhs[0] >= rhs[0] - 1e-12, (lhs, rhs)
        assert lam2[0] >= floor[0] - 1e-12, (lam2, floor)
    # equal diffusivities attain the bound for z orthogonal to the kernel
    D = DiffusionMatrix.uniform(3, 2.0)
    d = np.array([[0.3, 0.6, 0.4]])
    s = np.sqrt(d[0])
    z = np.array([1.0, -0.4, 0.7])
    z = z - s * (s @ z) / d.sum()
    lhs, rhs, lam2, floor = _gap_sides(d, D.inv, D.mu, z[None, :])
    assert lhs[0] >= rhs[0] - 1e-12 and abs(lhs[0] - rhs[0]) < 1e-12
    assert abs(lam2[0] - floor[0]) < 1e-12


def test_shifted_solve_matches_plain_solve_exactly():
    # v = J / (c + delta) at matched data: grad sqrt(d) = grad(c) / (2 sqrt(d))
    rng = np.random.default_rng(7)
    for n in (2, 3, 5):
        D, c, grad = random_problem(rng, n)
        delta = 0.07
        d = c + delta
        j = _solve_at_point(c, grad, D)
        gs = 0.5 * grad / np.sqrt(d)[:, None]
        v = _shifted_velocities(c, delta, gs, D)
        assert np.abs(v - j / d[:, None]).max() < 1e-12
        assert np.abs((d[:, None] * v).sum(axis=0)).max() < 1e-13


def test_shifted_velocities_drift_linearly_in_delta():
    rng = np.random.default_rng(8)
    D, c, grad = random_problem(rng, 3)
    j = _solve_at_point(c, grad, D)
    u = j / c[:, None]
    gaps = []
    for delta in (0.08, 0.04, 0.02, 0.01):
        gs = 0.5 * grad / np.sqrt(c + delta)[:, None]
        v = _shifted_velocities(c, delta, gs, D)
        gaps.append(float(np.abs(v - u).max()))
    ratios = [gaps[k] / gaps[k + 1] for k in range(3)]
    assert all(1.7 < r < 2.3 for r in ratios), ratios


def test_stability_constants_structure():
    D = DiffusionMatrix.uniform(3, 1.0)
    # delta_max depends on D alone; any shift in (0, 1) and flux bound will do
    cap = stability_constants(D, 0.5, 0.0).delta_max
    k = stability_constants(D, 0.5 * cap, flux_bound=2.0)
    assert k.admissible and k.delta_max == cap
    assert k.velocity_bound == 2.0 / (0.5 * cap)
    # quadratic-distance constants scale with the square of the flux bound
    k2 = stability_constants(D, 0.5 * cap, flux_bound=4.0)
    assert abs(k2.c1 / k.c1 - 4.0) < 1e-12
    assert abs(k2.c3 / k.c3 - 4.0) < 1e-12
    assert k2.c2 == k.c2 and k2.c4 == k.c4
    assert abs(k.c5 - (2 * 3 * k.mu * 4.0 + k.c1 + k.c3)) < 1e-12
    # outside the window the constants are still defined; admissible says so
    loose = stability_constants(D, 2.0 * cap, flux_bound=1.0)
    assert not loose.admissible and loose.delta_max == cap
    assert loose.c4 == k.c4 and loose.velocity_bound == 1.0 / (2.0 * cap)
    for delta in (1.5, 1.0, 0.0, -0.1, 1e-300):  # 1e-300**4 underflows to 0
        with pytest.raises(DeltaOutOfRange):
            stability_constants(D, delta, 1.0)
    assert stability_constants(D, 1e-80, 1.0).delta == 1e-80  # 1e-320 > 0


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_random_solves_stay_certified(n, seed):
    rng = np.random.default_rng(seed)
    D, c, grad = random_problem(rng, n)
    j = _solve_at_point(c, grad, D)
    scale = max(1.0, float(np.abs(grad).max()))
    assert _balance_residual(c, grad, j, D) <= 1e-10 * scale
    assert np.abs(j.sum(axis=0)).max() <= 1e-12 * max(1.0, np.abs(j).max())


def _point_residuals(c, grad, D):
    """Each point's kernel residual inside the whole batch: the same call
    with every other point's gradient zeroed (a zero gradient solves to
    zero flux with zero residual), so the compositions and the batch size
    are those of the full call."""
    out = []
    for p in range(len(c)):
        alone = np.zeros_like(grad)
        alone[p] = grad[p]
        out.append(solve_fluxes_batch(c, alone, D)[1])
    return np.array(out)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_residual_gate_holds_each_point_to_its_own_gradient(n):
    rng = np.random.default_rng(60 + n)
    D, c, grad = _batch_problem(rng, n, 64)
    # interior rows; a power of two scales residuals exactly and puts every
    # point's largest |grad| above 1
    c, grad = c[2 * n:], grad[2 * n:] * 2.0**10
    # lift the point of the smallest residual ratio far above the rest: it
    # sets the batch's largest |grad| but not the largest ratio
    r = _point_residuals(c, grad, D)
    grad[np.argmin(r / np.abs(grad).max(axis=1))] *= 2.0**12
    scale = np.abs(grad).max(axis=1)
    r = _point_residuals(c, grad, D)
    _, R = solve_fluxes_batch(c, grad, D)
    assert scale.min() > 1.0 and R == r.max() > 0.0
    per_point, per_call = (r / scale).max(), R / scale.max()
    # so the per-call scale, the batch's largest |grad|, is the looser one
    assert per_call < per_point < R
    # just above the largest point ratio: passes, with the batch residual
    _, res = solve_fluxes_batch(c, grad, D, residual_tol=per_point * (1.0 + 1e-9))
    assert res == R
    # just below it: one point fails its own scale, though the batch's
    # residual is within the tolerance times the batch's largest |grad|
    tol = per_point * (1.0 - 1e-9)
    assert R <= tol * scale.max()
    with pytest.raises(SingularComposition):
        solve_fluxes_batch(c, grad, D, residual_tol=tol)
    # a point with a gradient below 1 keeps the unit scale
    small = grad / 2.0**40
    assert np.abs(small).max() < 1.0
    _, r_small = solve_fluxes_batch(c, small, D)
    assert r_small == R / 2.0**40
    with pytest.raises(SingularComposition):
        solve_fluxes_batch(c, small, D, residual_tol=r_small * (1.0 - 1e-9))
