"""Batched force-flux linear algebra for multicomponent diffusion.

The cross-diffusion force balance at a point is a singular linear system:
the friction matrix M = diag(c K) - diag(c) K has the composition as kernel
and zero column sums, so it maps onto the zero-sum hyperplane. The batched
kernel finds the unique zero-sum flux by eliminating the last species with
sum J = 0: a closed form for two species, a 2x2 Cramer solve for three,
both from c K and c without assembling the matrix. From four species on,
the rank-one update M + mu c 1' makes every column strictly diagonally
dominant, so Gaussian elimination without pivoting solves it on
species-first stacks, one block update over all points per pivot. Every
point is gated by its own residual, evaluated from the same structure.

Layout: the batched kernel's public contract is (m, n) points by species,
with any strides. It computes on (n, m) species rows, so a transposed view
of C-ordered (n, m) rows (what the face divergence passes) is the fast
path with no copy, and other layouts cost one copy. The fluxes come back
as an (m, n) view of fresh (n, m) rows. Scratch rule: every other
temporary of the kernel (the right-hand side and its column sum, c K, the
Cramer entries and det, K x) is written into one block that this thread
reuses while (n, m) stays the same, so a time step on a grid already seen
allocates only its fluxes. Only the n >= 4 (n, n, m) stack is per call,
and once spent it holds K x.

The symmetric form A = diag(s)^-1 M diag(s), s = sqrt(c + delta), is the
Maxwell-Stefan matrix whose spectrum carries the uniqueness argument: it
is positive semidefinite with kernel s, and its second eigenvalue is at
least |c + delta| mu. One batched builder, over (m, n) stacks of shifted
compositions, serves the operator algebra (with the shift correction that
keeps every entry bounded away from the singular set) and the spectral
certificate; there is no per-point operator. The dense flux oracle
solve_fluxes_lstsq solves on the range of A, built in its own
species-first layout: a different system from the kernel's, sharing only
the elimination routine, with the kernel's (m, n) contract.
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

    Every temporary but the n >= 4 stack B (which holds K x once spent)
    lives in one scratch block of this thread, kept for the latest (n, m)
    (see ``_scratch``), so a call at a size already seen allocates only its
    fluxes. At n >= 4 a point's result can depend on the size of its batch:
    K @ c rounds differently with m, by a few ulp, so one point solved
    alone need not be bit-equal to the same point inside a larger batch.
    No such difference has been observed at n <= 3.
    """
    if c.ndim != 2 or c.shape[1] != D.n or grad_c.shape != c.shape:
        raise ValueError(
            f"compositions {c.shape} and gradients {grad_c.shape} must both be "
            f"(m, {D.n}) for {D.n} species"
        )
    K = D.inv
    m, n = c.shape
    c = np.ascontiguousarray(c.T)  # (n, m) species rows from here on
    b, cK, Kx, rows = scratch("flux", (n, m), _kernel_scratch)
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
        elif n == 3:
            x = _solve_reduced_3(c, cK, K, b, rows)
        else:
            # B = M + mu c 1': B_ij = c_i (mu - K_ij), B_jj = (c K)_j + mu c_j
            B = (D.mu - K)[:, :, None] * c[:, None, :]
            B.reshape(n * n, -1)[:: n + 1] += cK
            x = _eliminate(B, b.copy())
            Kx = B[0]  # B is spent; its first (n, m) block row is free
            # sum x is zero up to rounding amplified by 1 / mu; shift along M's kernel
            shift = x.sum(axis=0, out=rows[0])
            shift /= c.sum(axis=0, out=rows[1])
            x -= np.multiply(shift, c, out=Kx)
        # residual (c K) x - c (K x) - b, built in the buffer of c K
        cKx = np.matmul(K, x, out=Kx)
        cKx *= c
        cK *= x
        cK -= cKx
        cK -= b
        r = np.abs(cK, out=cK)
        residual = float(r.max())
    if not (residual <= residual_tol or _points_within(r, grad_c, residual_tol)):
        raise SingularComposition(
            f"force-flux residual {residual:.3e} exceeds tolerance"
        )
    return x.T, residual


def _points_within(r, grad_c, tol):
    """Whether every point's largest |r_i| ((n, m) rows) is at most tol *
    max(1, max_i |grad_c_i|) of that point ((m, n) gradients); NaN is not."""
    scale = np.maximum(np.abs(grad_c).max(axis=1), 1.0)
    return bool(np.all(r.max(axis=0) <= tol * scale))


def _kernel_scratch(n, m):
    """The kernel's buffers for n species at m points, carved from one
    array: (n, m) blocks for b, c K and, up to three species, K x (from
    four on, K x goes into the spent stack B instead, which keeps the held
    block small), and (m,) rows for the rest."""
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
    for (n, n, m) species-first matrices B and (n, m) rows b, one block
    update over all m points per pivot. Both are overwritten; x comes back
    in b. Safe for column diagonally dominant or positive definite B; a zero
    pivot gives inf or NaN, which the callers' checks reject."""
    n = len(b)
    for k in range(n - 1):
        lower = B[k + 1:, k] / B[k, k]
        B[k + 1:, k + 1:] -= lower[:, None] * B[k, k + 1:]
        b[k + 1:] -= lower * b[k]
    for k in range(n - 1, -1, -1):
        b[k] /= B[k, k]
        b[:k] -= B[:k, k] * b[k]
    return b


def solve_fluxes_lstsq(c, grad_c, D):
    """Dense oracle for solve_fluxes_batch, same (m, n) contract: a solve on
    the range of the symmetric friction A = diag(s)^-1 M diag(s), s = sqrt(c),
    independent of the kernel's elimination; used to cross-check it.

    A is positive semidefinite with kernel s, and b / s is orthogonal to s
    for a zero-sum b, so the positive definite (A + s s' / |s|^2) y = b / s,
    built as (n, n, m) species-first stacks and solved by _eliminate, is
    exact: its solution has A y = b / s and y orthogonal to s. Then x = s y
    solves M x = b, and a multiple of the kernel c shifts it onto the
    zero-sum slice. The division by s needs every composition entry strictly
    positive; a row with a zero or negative entry raises SingularComposition.
    """
    bad = np.flatnonzero(~np.all(c > 0.0, axis=1))
    if bad.size:
        raise SingularComposition(
            f"dense oracle needs strictly positive compositions; "
            f"row {bad[0]} is {c[bad[0]].tolist()}"
        )
    K = D.inv
    n = c.shape[1]
    c = np.ascontiguousarray(c.T)  # (n, m) species rows
    s = np.sqrt(c)
    mass = c.sum(axis=0)
    # A + s s' / |s|^2: s_i s_j (1 / |s|^2 - K_ij), plus (c K)_j on the diagonal
    A = (1.0 / mass - K[:, :, None]) * (s[:, None, :] * s[None, :, :])
    A.reshape(n * n, -1)[:: n + 1] += K @ c
    b = grad_c.T.mean(axis=0) - grad_c.T
    x = s * _eliminate(A, b / s)
    x -= x.sum(axis=0) / mass * c
    return x.T


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


def admissible_delta_max(D):
    """Largest shift for which the dissipation margin mu/4 - c4*delta stays positive."""
    # delta_max depends on D alone; any shift in (0, 1) and flux bound will do
    return stability_constants(D, 0.5, 0.0).delta_max


def stability_constants(D, delta, flux_bound):
    """Explicit constants for the twin stability estimate at shift delta.

    flux_bound is the measured sup-norm of the species fluxes c_i u_i along
    the trajectories. A shift outside (0, 1) raises DeltaOutOfRange. Any
    shift inside it gets its constants; ``admissible`` says whether it also
    lies below delta_max = min(1, mu/(4 c4)), where the certified
    dissipation margin mu/4 - c4 delta is positive (outside, the
    certificates carry the eroded margin explicitly).
    """
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
    if not 0.0 < delta < 1.0:
        raise DeltaOutOfRange(f"delta must lie in (0, 1), got {delta}")
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
