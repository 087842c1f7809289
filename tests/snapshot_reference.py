"""Reference snapshot fluxes for the tests: each snapshot of a run solved
alone, so a reference does not share the block code that it checks."""

import numpy as np

from msdiff import sim


def fresh_snapshot_fluxes(traj):
    """(S, n, dim, *cells): each snapshot's cell-averaged fluxes from a face
    solve of it alone, with the run's D."""
    grid = traj.grid
    out = np.empty(traj.states.shape[:2] + (grid.dim,) + grid.cells)
    for c, J in zip(traj.states, out):
        sim._cell_average(divergence_and_faces(c, traj.D, grid)[1], J)
    return out


def divergence_and_faces(c, D, grid):
    """A face divergence with its face fluxes kept: (div, faces, fmax, residual)."""
    faces = []
    div, fmax, residual = sim._face_divergence(c, D, grid, faces)
    return div, faces, fmax, residual
