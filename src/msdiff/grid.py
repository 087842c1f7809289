"""Uniform periodic grids and the discrete calculus used by the solver.

Cell-centered fields on a 1-3 dimensional torus: central-difference
gradients and midpoint quadrature; the solver's conservative face
divergence lives in ``sim``. Every periodic stencil takes its neighbours
from one shift helper, ``_shift``: two slices and a concatenate,
byte-equal to numpy's ``roll`` by one cell, into a given buffer or a new
array. A grid computes its spacing, cell volume and axis count once and
caches them. All reductions use numpy's pairwise summation, so results
are reproducible across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


class GridMismatch(ValueError):
    """Fields that should share a grid or species layout do not."""


@dataclass(frozen=True)
class PeriodicGrid:
    """Uniform cell-centered grid on a periodic box.

    cells    -- number of cells per axis (1 to 3 axes)
    lengths  -- box edge lengths, defaults to a unit torus
    """

    cells: tuple
    lengths: tuple = None

    def __post_init__(self):
        cells = tuple(int(m) for m in np.atleast_1d(self.cells))
        if not 1 <= len(cells) <= 3:
            raise ValueError(f"grid must have 1 to 3 axes, got {len(cells)}")
        if any(m < 1 for m in cells):
            raise ValueError(f"cell counts must be positive, got {cells}")
        lengths = self.lengths
        if lengths is None:
            lengths = (1.0,) * len(cells)
        lengths = tuple(float(L) for L in np.atleast_1d(lengths))
        if len(lengths) != len(cells):
            raise ValueError("lengths must match the number of axes")
        if any(L <= 0 for L in lengths):
            raise ValueError(f"box lengths must be positive, got {lengths}")
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "lengths", lengths)

    # cached in the instance __dict__; equality and hashing use the fields only
    @cached_property
    def dim(self):
        return len(self.cells)

    @cached_property
    def spacing(self):
        return tuple(L / m for L, m in zip(self.lengths, self.cells))

    @cached_property
    def cell_volume(self):
        return float(np.prod(self.spacing))

    def axes(self):
        """Cell-center coordinates along each axis."""
        return tuple(
            (np.arange(m) + 0.5) * h for m, h in zip(self.cells, self.spacing)
        )

    def meshgrid(self):
        return np.meshgrid(*self.axes(), indexing="ij")

    def refine(self, factor=2):
        return PeriodicGrid(tuple(m * factor for m in self.cells), self.lengths)

    def check_field(self, f):
        shape = f.shape if isinstance(f, np.ndarray) else np.shape(f)
        if shape[-self.dim:] != self.cells:
            raise GridMismatch(
                f"field shape {np.shape(f)} does not end with grid cells {self.cells}"
            )


def _shift(f, step, axis, out=None):
    """Periodic shift by one cell: numpy's ``roll(f, step, axis)`` for
    step = +1 or -1, as two slices joined by one concatenate (a pure copy),
    written into ``out`` (of f's shape, any strides) when it is given."""
    axis %= f.ndim
    lead = (slice(None),) * axis
    cut = -1 if step == 1 else 1
    return np.concatenate(
        (f[lead + (slice(cut, None),)], f[lead + (slice(None, cut),)]), axis=axis, out=out
    )


def gradient(f, grid):
    """Central-difference gradient of a cell field.

    Leading axes of ``f`` are treated as a batch; the result has an extra
    axis of length ``grid.dim`` inserted before the cell axes.
    """
    f = np.asarray(f, dtype=float)
    grid.check_field(f)
    comps = []
    for k, h in enumerate(grid.spacing):
        ax = f.ndim - grid.dim + k
        comps.append((_shift(f, -1, ax) - _shift(f, 1, ax)) / (2.0 * h))
    return np.stack(comps, axis=f.ndim - grid.dim)


def integrate(f, grid):
    """Midpoint quadrature over the torus; batch axes are preserved."""
    f = np.asarray(f, dtype=float)
    grid.check_field(f)
    axes = tuple(range(f.ndim - grid.dim, f.ndim))
    val = f.sum(axis=axes) * grid.cell_volume
    return float(val) if val.ndim == 0 else val


def l2_norm(f, grid):
    """L2 norm over the torus; batch axes are folded into the norm."""
    return float(np.sqrt(np.sum(integrate(np.asarray(f, dtype=float) ** 2, grid))))


@dataclass
class ConcentrationState:
    """Molar concentrations of n species on a grid at one instant.

    ``c`` has shape (n, *grid.cells); concentrations sum to one in every
    cell and each lies in [0, 1], up to the validation tolerance.
    """

    grid: PeriodicGrid
    c: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float)
        if self.c.shape[1:] != self.grid.cells:
            raise GridMismatch(
                f"concentration array must have shape (n, *{self.grid.cells}), "
                f"got {self.c.shape}"
            )

    @property
    def n(self):
        return self.c.shape[0]

    def validate(self, tol=1e-12):
        if self.n < 2:
            raise ValueError("need at least two species")
        simplex = np.abs(self.c.sum(axis=0) - 1.0)
        if simplex.max() > tol:
            raise ValueError(
                f"concentrations do not sum to 1 (max defect {simplex.max():.3e})"
            )
        if self.c.min() < -tol or self.c.max() > 1.0 + tol:
            raise ValueError(
                f"concentrations outside [0, 1]: min {self.c.min():.3e}, "
                f"max {self.c.max():.3e}"
            )
        return self

    def copy(self):
        return ConcentrationState(self.grid, self.c.copy(), self.time)

