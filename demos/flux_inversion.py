"""Invert the force-flux balance at random compositions.

Draws a four-species diffusivity matrix and a batch of strictly positive
compositions, solves for the zero-sum fluxes driven by random zero-sum
forces, and checks the solve against the dense oracle, a solve on the
range of the symmetric friction matrix.
"""

import numpy as np

from msdiff.flux import DiffusionMatrix, solve_fluxes_batch, solve_fluxes_lstsq


def main():
    rng = np.random.default_rng(7)
    n, m = 4, 2000
    vals = np.exp(rng.uniform(np.log(0.2), np.log(5.0), size=(n, n)))
    d = np.triu(vals, 1)
    D = DiffusionMatrix(d + d.T)

    g = -np.log(rng.uniform(size=(m, n)))
    c = g / g.sum(axis=1, keepdims=True)
    force = rng.normal(size=(m, n))
    force -= force.mean(axis=1, keepdims=True)

    J, residual = solve_fluxes_batch(c, force, D)
    K = D.inv
    direct = np.abs((c @ K) * J - c * (J @ K) + force).max()
    zero_sum = np.abs(J.sum(axis=1)).max()

    print(f"species            : {n}")
    print(f"samples            : {m}")
    print(f"reported residual  : {residual:.3e}")
    print(f"recomputed residual: {direct:.3e}")
    print(f"worst flux sum     : {zero_sum:.3e}")

    worst = np.abs(J - solve_fluxes_lstsq(c, force, D)).max()
    print(f"oracle disagreement: {worst:.3e} (range solve of the symmetric friction)")


if __name__ == "__main__":
    main()
