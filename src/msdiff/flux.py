"""Batched force-flux linear algebra for multicomponent diffusion.

The cross-diffusion force balance at a point is a singular linear system:
the friction matrix M = diag(c K) - diag(c) K has the composition as kernel
and zero column sums, so it maps onto the zero-sum hyperplane. The batched
kernel finds the unique zero-sum flux by eliminating the last species with
sum J = 0: a closed form for two species, a 2x2 Cramer solve for three,
both from c K and c without assembling the matrix. From four species on,
the rank-one update M + mu c 1' makes every column strictly diagonally
dominant, so Gaussian elimination without pivoting solves it on
species-first (n, n, block) stacks, one row update over all points of a
block at a time through one (n, block) buffer, with no block per pivot.
Every point is gated by its own residual, evaluated from the same
structure.

Layout and scratch (see solve_fluxes_batch): the kernel takes (m, n)
points by species and computes on (n, m) species rows, so a transposed
view of such rows (what the face divergence passes) costs no copy. Its
other temporaries live in one block that this thread reuses, so a time
step on a grid already seen allocates only its fluxes; from four species
on, a batch is solved in blocks of points, so no temporary grows with m.

The symmetric form A = diag(s)^-1 M diag(s), s = sqrt(c + delta), is the
Maxwell-Stefan matrix whose spectrum carries the uniqueness argument: it
is positive semidefinite with kernel s, and its second eigenvalue is at
least |c + delta| mu. One batched builder, over (m, n) stacks of shifted
compositions, serves the operator algebra (with the shift correction that
keeps every entry bounded away from the singular set) and the spectral
certificate; there is no per-point operator. The dense flux oracle
solve_fluxes_lstsq solves on the range of A, built as species-first
(n, n, block) stacks in the kernel's blocks: a different system from the
kernel's, sharing only the entry check, the blocks, the zero-sum
right-hand side and the elimination routine, with the kernel's (m, n)
contract.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._scratch import scratch


class SingularComposition(ValueError):
    """The force-flux system could not be solved to tolerance."""


class DeltaOutOfRange(ValueError):
    """The shift delta violates its admissible interval."""


class DiffusionMatrix:
    """Symmetric pairwise diffusivities D_ij > 0 for i != j.

    The diagonal carries no physics and is stored as zero. ``inv`` holds
    the reciprocal matrix (zero diagonal), whose off-diagonal extremes
    ``mu`` and ``big_m`` bound the friction strength from below and above;
    ``d_max``, the largest diffusivity, sets the explicit step bound.
    """

    def __init__(self, d):
        d = np.array(d, dtype=float)
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise ValueError(f"diffusivities must form a square matrix, got {d.shape}")
        n = d.shape[0]
        if n < 2:
            raise ValueError("need at least two species")
        off = ~np.eye(n, dtype=bool)
        if not np.allclose(d, d.T, rtol=0.0, atol=1e-14 * max(1.0, np.abs(d).max())):
            raise ValueError("diffusivities must be symmetric")
        if np.any(d[off] <= 0.0):
            raise ValueError("off-diagonal diffusivities must be positive")
        self.d = d * off
        self.inv = np.where(off, 1.0 / np.where(off, d, 1.0), 0.0)
        self.n = n
        self.mu = float(self.inv[off].min())
        self.big_m = float(self.inv[off].max())
        self.d_max = float(self.d.max())

    @classmethod
    def from_pairs(cls, n, pairs):
        """Build from {(i, j): D_ij} with 0-based, unordered species pairs."""
        d = np.zeros((n, n))
        for (i, j), val in pairs.items():
            if i == j:
                raise ValueError(f"pair ({i}, {j}) is diagonal")
            if d[i, j] != 0.0 and d[i, j] != val:
                raise ValueError(f"conflicting values for pair ({i}, {j})")
            d[i, j] = d[j, i] = val
        off = ~np.eye(n, dtype=bool)
        if np.any(d[off] == 0.0):
            missing = [(i, j) for i in range(n) for j in range(i + 1, n) if d[i, j] == 0.0]
            raise ValueError(f"missing diffusivities for pairs {missing}")
        return cls(d)

    @classmethod
    def uniform(cls, n, value=1.0):
        return cls(np.full((n, n), float(value)))

    def __repr__(self):
        return f"DiffusionMatrix(n={self.n}, mu={self.mu!r}, big_m={self.big_m!r})"


def _symmetric_friction(d, K):
    """The symmetric friction A = diag(s)^-1 M diag(s), s = sqrt(d), of
    (m, n) shifted compositions d, for a shared (n, n) or a per-point
    (m, n, n) K: A_ij = -s_i s_j K_ij off the diagonal and (d K)_i on it.
    A is positive semidefinite with kernel s. Returns (s, A).
    """
    s = np.sqrt(d)
    A = -(s[:, :, None] * s[:, None, :]) * K
    idx = np.arange(d.shape[1])
    A[:, idx, idx] = _row_times(d, K)
    return s, A


def _shift_correction(s, K):
    """Batched delta-correction diag(s)^-1 K diag(s) with diagonal -K 1, so
    that s' (A + delta * correction) = 0; rows where s_i = 0 are zero off
    the diagonal."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(s[:, :, None] > 0.0, s[:, None, :] / s[:, :, None], 0.0)
    P = ratio * K
    idx = np.arange(s.shape[1])
    P[:, idx, idx] = -K.sum(axis=-1)
    return P


def _row_times(c, K):
    """(c K) per point, for a shared (n, n) K or an (m, n, n) stack."""
    return c @ K if K.ndim == 2 else np.einsum("mi,mij->mj", c, K)


def solve_fluxes_batch(c, grad_c, D, residual_tol=1e-10):
    """Vectorized force-flux solve for many points, one gradient component.

    c, grad_c: shape (m, n) for the n species of D, with any strides; other
    shapes raise ValueError. The kernel works on (n, m) species rows: it
    takes c.T and grad_c.T as C-contiguous rows, which is free when the
    caller passes transposed views of (n, m) rows (the fast path) and one
    copy otherwise. Returns (fluxes (m, n), max residual); the fluxes are
    an (m, n) view of fresh (n, m) rows.

    The friction matrix M = diag(c K) - diag(c) K has zero column sums, so
    the zero-sum flux is found from the first n - 1 rows with the last
    species eliminated by sum x = 0. For n = 2 that is the closed form
    x_1 = b_1 / (K_12 (c_1 + c_2)); for n = 3 a 2x2 Cramer solve whose
    entries come from c K and c, with no (m, n, n) stack. For n >= 4,
    B = M + mu c 1' (mu = D.mu <= K_ij) has B_ij = c_i (mu - K_ij) <= 0 off
    the diagonal and column margin B_jj - sum_i!=j |B_ij| = mu sum c > 0 at
    every composition, so _eliminate needs no pivoting; 1' B = mu (sum c) 1'
    makes the solution of B x = b zero-sum for a zero-sum b, hence M x = b,
    and a shift along the kernel c takes the rounding out of sum x.
    The residual M x - b is evaluated from the same structure as
    (c K) x - c (K x) - b (K is symmetric). Each point is held to its own
    scale: when the largest |r| is above residual_tol, every point's
    largest |r_i| must be within residual_tol * max(1, max_i |grad_c_i|) of
    that point, so pooling points of different gradient scales into one
    call loosens no point's test. A point beyond it, or a NaN, raises
    SingularComposition. The per-point gradient consistency is not
    rechecked here; callers feed gradients that are zero-sum by construction.

    Up to three species every temporary lives in one scratch block of this
    thread, kept for the latest (n, m) (see ``_scratch``), so a call at a
    size already seen allocates only its fluxes. From four on the points
    are solved in near-equal blocks (see _blocks), each through the whole
    body: right-hand side, c K, the stack, _eliminate (straight into the
    fluxes' block columns), the shift and the residual. The scratch is
    kept for (n, largest block), smaller blocks use its leading columns,
    and one (n, n, largest block) stack and _eliminate's rows are
    allocated per call, so nothing but the fluxes grows with m. A point's
    result depends neither on the blocks nor on the batch: a lone point is
    solved as a pair (see _species_rows).
    """
    m = len(c)
    c, grad_c = _species_rows(c, grad_c, D)
    K = D.inv
    n = len(c)
    if n >= 4:
        x, residual = _solve_dominant(c, grad_c, D, residual_tol)
        return _points(x, m), residual
    b, cK, Kx, rows = scratch("flux", c.shape, _kernel_scratch)
    # degenerate points give NaN or inf here; the residual test rejects them
    with np.errstate(divide="ignore", invalid="ignore"):
        _zero_sum_rhs(grad_c.T, b, rows[0])
        np.matmul(K, c, out=cK)
        if n == 2:
            x = np.empty_like(b)
            t = np.add(c[0], c[1], out=rows[0])
            t *= K[0, 1]
            np.divide(b[0], t, out=x[0])
            np.negative(x[0], out=x[1])
        else:
            x = _solve_reduced_3(c, cK, K, b, rows)
        r = _residual_rows(K, c, x, b, cK, Kx)
    return _points(x, m), _gated(r, grad_c, residual_tol)


# The values of one (n, n, block) stack of the n >= 4 kernel and of the
# oracle: 4,096 points at n = 6. Blocks of 1,024 points were 1.5-2x
# slower there; blocks of 8,192 were no faster at 20,000 points.
_STACK_VALUES = 36 * 4096


def _blocks(m, n):
    """The point slices that the n >= 4 kernel and the oracle solve one at
    a time: as few near-equal blocks as keep each (n, n, block) stack
    within _STACK_VALUES values (one block, maybe empty, for m <= the
    cap). Sizes differ by at most one, the larger first, so every block of
    a split batch holds at least half the cap and the first block is the
    largest."""
    cap = max(1, _STACK_VALUES // (n * n))
    count = max(1, -(-m // cap))
    size, larger = divmod(m, count)
    edges = [i * size + min(i, larger) for i in range(count + 1)]
    return [slice(lo, hi) for lo, hi in zip(edges, edges[1:])]


def _solve_dominant(c, grad_c, D, tol):
    """solve_fluxes_batch from four species on, for (n, m) rows c and
    (m, n) gradients: B x = b with B = M + mu c 1', one block of points at
    a time. Returns (fluxes as (n, m) rows, max residual)."""
    K = D.inv
    n, m = c.shape
    blocks = _blocks(m, n)
    size = blocks[0].stop  # the largest block
    b_rows, cK_rows, _, rows = scratch("flux", (n, size), _kernel_scratch)
    stack = np.empty(n * n * size)
    mu_K = D.mu - K
    x = np.empty((n, m))
    residual = 0.0
    for sl in blocks:
        k = sl.stop - sl.start
        cb, xb, gb = c[:, sl], x[:, sl], grad_c[sl]
        # smaller blocks take the leading columns of the scratch
        b, cK, total, mass = b_rows[:, :k], cK_rows[:, :k], rows[0][:k], rows[1][:k]
        with np.errstate(divide="ignore", invalid="ignore"):
            _zero_sum_rhs(gb.T, b, total)
            np.matmul(K, cb, out=cK)
            # B = M + mu c 1': B_ij = c_i (mu - K_ij), B_jj = (c K)_j + mu c_j
            B = stack[: n * n * k].reshape(n, n, k)
            np.multiply(mu_K[:, :, None], cb[:, None, :], out=B)
            B.reshape(n * n, -1)[:: n + 1] += cK
            np.copyto(xb, b)
            _eliminate(B, xb)
            Kx = B[0]  # B is spent; its first (n, k) block row is free
            # sum x is zero up to rounding amplified by 1 / mu; shift along M's kernel
            shift = xb.sum(axis=0, out=total)
            shift /= cb.sum(axis=0, out=mass)
            xb -= np.multiply(shift, cb, out=Kx)
            r = _residual_rows(K, cb, xb, b, cK, Kx)
        residual = max(residual, _gated(r, gb, tol))
    return x, residual


def _residual_rows(K, c, x, b, cK, Kx):
    """|M x - b| as (n, m) rows, evaluated as (c K) x - c (K x) - b (K is
    symmetric) in the buffer of c K, with K x in the buffer Kx."""
    cKx = np.matmul(K, x, out=Kx)
    cKx *= c
    cK *= x
    cK -= cKx
    cK -= b
    return np.abs(cK, out=cK)


def _gated(r, grad_c, tol):
    """The largest of the residual rows r ((n, m), for the (m, n) gradients
    grad_c), after the per-point test: above tol, every point's largest
    |r_i| must be at most tol * max(1, max_i |grad_c_i|) of that point, and
    NaN never is; a point beyond it raises SingularComposition."""
    residual = float(r.max())
    if residual <= tol:
        return residual
    scale = np.maximum(np.abs(grad_c).max(axis=1), 1.0)
    if not np.all(r.max(axis=0) <= tol * scale):
        raise SingularComposition(
            f"force-flux residual {residual:.3e} exceeds tolerance"
        )
    return residual


def _kernel_scratch(n, m):
    """The kernel's buffers for n species at m points, carved from one
    array: (n, m) blocks for b, c K and, up to three species, K x (from
    four on, K x goes into the spent stack B instead, which keeps the held
    block small), and (m,) rows for the rest. From four species on, m is
    the largest block of a batch, and a smaller block takes the leading
    columns."""
    blocks = 2 if n >= 4 else 3
    block = np.empty((blocks * n + (6 if n == 3 else 2), m))
    Kx = None if n >= 4 else block[2 * n:3 * n]
    return block[:n], block[n:2 * n], Kx, tuple(block[blocks * n:])


def _zero_sum_rhs(grad_rows, out, total):
    """The kernel's right-hand side, into out: -grad_c as C-ordered (n, m)
    species rows, projected onto sum_i b_i = 0 at every point (a sum over n
    into the (m,) buffer total, then / n)."""
    b = np.negative(grad_rows, out=out)
    total = b.sum(axis=0, out=total)
    total /= len(b)
    b -= total
    return b


def _solve_reduced_3(c, cK, K, b, rows):
    """Three species: rows 1-2 of M x = b with x_3 = -x_1 - x_2, by Cramer.
    Every argument but K and rows holds (3, m) species rows; rows holds six
    (m,) buffers, for the matrix entries, det and one product."""
    c1, c2 = c[0], c[1]
    b1, b2 = b[0], b[1]
    a11, a12, a21, a22, det, t = rows
    x = np.empty_like(b)
    x1, x2, x3 = x
    np.multiply(c1, K[0, 2], out=a11)
    a11 += cK[0]
    np.multiply(c1, K[0, 2] - K[0, 1], out=a12)
    np.multiply(c2, K[1, 2] - K[0, 1], out=a21)
    np.multiply(c2, K[1, 2], out=a22)
    a22 += cK[1]
    np.multiply(a11, a22, out=det)
    det -= np.multiply(a12, a21, out=t)
    np.multiply(b1, a22, out=x1)
    x1 -= np.multiply(a12, b2, out=t)
    x1 /= det
    np.multiply(a11, b2, out=x2)
    x2 -= np.multiply(a21, b1, out=t)
    x2 /= det
    np.negative(x1, out=x3)
    x3 -= x2
    return x


def _eliminate(B, b):
    """Solve B x = b at every point by Gaussian elimination without pivoting,
    for (n, n, m) species-first matrices B and (n, m) rows b, one row at a
    time over all m points: each pivot k puts row i's multiplier
    B[i, k] / B[k, k] into one (m,) buffer, and row i's update of B and b
    goes through one (n, m) buffer, which back-substitution reuses. So a
    call allocates (n + 1) m values and no block per pivot; every element
    gets the operations of a per-pivot block update, in the same order, so
    the bits are those of that form. Both arguments are
    overwritten; x comes back in b. Safe for column diagonally dominant or
    positive definite B; a zero pivot gives inf or NaN, which the callers'
    checks reject."""
    n, m = b.shape
    work = np.empty((n + 1, m))
    lower, prod = work[0], work[1:]
    for k in range(n - 1):
        tail = prod[: n - k - 1]
        for i in range(k + 1, n):
            np.divide(B[i, k], B[k, k], out=lower)
            B[i, k + 1:] -= np.multiply(lower, B[k, k + 1:], out=tail)
            b[i] -= np.multiply(lower, b[k], out=prod[0])
    for k in range(n - 1, -1, -1):
        b[k] /= B[k, k]
        b[:k] -= np.multiply(B[:k, k], b[k], out=prod[:k])
    return b


def _species_rows(c, grad_c, D):
    """The entry of both solvers: raise ValueError unless c and grad_c are
    both (m, n) for the n species of D, and return (c as C-ordered (n, m)
    species rows, grad_c). A lone point comes back as two copies of
    itself, and the caller solves the pair (see _points): for one column,
    matmul takes a matrix-vector path that rounds differently from a
    batch, and a point gets the same bits alone as in any batch."""
    if c.ndim != 2 or c.shape[1] != D.n or grad_c.shape != c.shape:
        raise ValueError(
            f"compositions {c.shape} and gradients {grad_c.shape} must both be "
            f"(m, {D.n}) for {D.n} species"
        )
    if len(c) == 1:
        c, grad_c = np.repeat(c, 2, axis=0), np.repeat(grad_c, 2, axis=0)
    return np.ascontiguousarray(c.T), grad_c


def _points(x, m):
    """The solved (n, m) rows x as the (m, n) view of fresh rows that both
    solvers return; for a lone point (m = 1), a copy of its pair's first."""
    return (x[:, :1].copy() if m == 1 else x).T


def solve_fluxes_lstsq(c, grad_c, D):
    """Dense oracle for solve_fluxes_batch, with the same (m, n) contract
    and entry (_species_rows): a solve on the range of the symmetric friction
    A = diag(s)^-1 M diag(s), s = sqrt(c), independent of the kernel's
    elimination; used to cross-check it.

    A is positive semidefinite with kernel s, and b / s is orthogonal to s
    for a zero-sum b, so the positive definite (A + s s' / |s|^2) y = b / s
    is exact: its solution has A y = b / s and y orthogonal to s. Then
    x = s y solves M x = b, and a multiple of the kernel c shifts it onto
    the zero-sum slice. The division by s needs every composition entry
    strictly positive; the whole batch is checked first, and a row with a
    zero, negative or NaN entry raises SingularComposition naming its index.

    The points are solved in the kernel's near-equal blocks (see _blocks).
    Each block's matrix is one (n, n, block) species-first stack: s_i s_j,
    each species block row then scaled in place by 1 / |s|^2 - K_ij, plus
    (c K)_j on the diagonal; _eliminate solves it straight into the
    fluxes' block columns. The stack and the (n, block) rows for s, the
    products and |s|^2 are built once per call for the largest block, so
    only the fluxes grow with m.
    """
    m = len(c)
    c, grad_c = _species_rows(c, grad_c, D)
    K = D.inv
    if not c.min(initial=np.inf) > 0.0:
        bad = np.flatnonzero(~np.all(c > 0.0, axis=0))[0]
        raise SingularComposition(
            f"dense oracle needs strictly positive compositions; "
            f"row {bad} is {c[:, bad].tolist()}"
        )
    n = len(c)
    blocks = _blocks(c.shape[1], n)
    size = blocks[0].stop  # the largest block
    stack = np.empty(n * n * size)
    work = np.empty((2 * n + 2, size))
    x = np.empty_like(c)
    for sl in blocks:
        k = sl.stop - sl.start
        cb, xb, gb = c[:, sl], x[:, sl], grad_c[sl].T
        # smaller blocks take the leading columns
        s = np.sqrt(cb, out=work[:n, :k])
        rows, mass, t = work[n:2 * n, :k], work[2 * n, :k], work[2 * n + 1, :k]
        cb.sum(axis=0, out=mass)
        inv_mass = np.divide(1.0, mass, out=t)
        A = stack[: n * n * k].reshape(n, n, k)
        np.multiply(s[:, None, :], s[None, :, :], out=A)
        for Ai, Ki in zip(A, K):
            Ai *= np.subtract(inv_mass, Ki[:, None], out=rows)
        A.reshape(n * n, -1)[:: n + 1] += np.matmul(K, cb, out=rows)
        b = _zero_sum_rhs(gb, xb, t)
        b /= s
        _eliminate(A, xb)
        xb *= s
        shift = xb.sum(axis=0, out=t)
        shift /= mass
        xb -= np.multiply(shift, cb, out=rows)
    return _points(x, m)


@dataclass
class StabilityConstants:
    """Constants of the twin-trajectory stability estimate.

    All are explicit functions of the species count, the reciprocal
    diffusivity extremes mu and big_m, and the measured flux bound; none
    depends on delta. c1 collects the quadratic-distance cost of the two
    leading cross terms plus the dissipation correction, c2 the
    velocity-weighted cost of the shift coupling, c3 its quadratic-distance
    cost, c4 the total coefficient eroding the dissipation margin, and c5
    the aggregate quadratic-distance coefficient of the final estimate.
    """

    n: int
    mu: float
    big_m: float
    delta: float
    flux_bound: float
    velocity_bound: float
    c1: float
    c2: float
    c3: float
    c4: float
    c5: float
    delta_max: float
    admissible: bool


def stability_constants(D, delta, flux_bound):
    """Explicit constants for the twin stability estimate at shift delta.

    flux_bound is the measured sup-norm of the species fluxes c_i u_i along
    the trajectories. A shift outside (0, 1), or one whose delta**4 (a
    divisor of the certificate) underflows to 0, raises DeltaOutOfRange.
    Any other shift gets its constants; ``admissible`` says whether it also
    lies below delta_max = min(1, mu/(4 c4)), where the certified
    dissipation margin mu/4 - c4 delta is positive (outside, the
    certificates carry the eroded margin explicitly).
    """
    if not (0.0 < delta < 1.0 and delta**4 > 0.0):
        raise DeltaOutOfRange(f"delta must lie in (0, 1) with delta**4 > 0, got {delta}")
    n, mu, M = D.n, D.mu, D.big_m
    F = float(flux_bound)
    if F < 0.0:
        raise ValueError("flux bound must be nonnegative")
    c1 = 16.0 * n**2 * M**2 * F**2 / mu
    c2 = 2.0 * n**2 * M**2 / mu
    c3 = 40.0 * n**2 * M**2 * F**2 / mu
    c4 = n * M + c2
    c5 = 2.0 * n * mu * F**2 + c1 + c3
    delta_max = min(1.0, mu / (4.0 * c4))
    return StabilityConstants(
        n=n,
        mu=mu,
        big_m=M,
        delta=float(delta),
        flux_bound=F,
        velocity_bound=F / delta,
        c1=c1,
        c2=c2,
        c3=c3,
        c4=c4,
        c5=c5,
        delta_max=delta_max,
        admissible=delta < delta_max,
    )
