"""Piecewise-constant vector functions on a uniform time grid.

Everything downstream works in the discretized function space: a function
h : [0, horizon] -> R^m is stored as one value per (cell, component).  For
step functions the L2 inner product is the exact finite sum
``dt * sum_k <h_k, g_k>``, so no quadrature error enters any residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ShapeMismatch, require_integer, require_positive_real


@dataclass(frozen=True)
class TimeGrid:
    """Uniform partition of [0, horizon] into `cells` intervals."""

    horizon: float
    cells: int

    def __post_init__(self):
        object.__setattr__(self, "horizon", require_positive_real("horizon", self.horizon))
        object.__setattr__(self, "cells", int(require_integer("cells", self.cells, 1)))

    @property
    def dt(self) -> float:
        return self.horizon / self.cells

    def midpoints(self) -> np.ndarray:
        return (np.arange(self.cells) + 0.5) * self.dt


def make_grid(horizon: float, cells: int) -> TimeGrid:
    """Validate and build a uniform grid over [0, horizon]."""
    return TimeGrid(horizon, cells)


@dataclass(frozen=True, eq=False)
class GridFunction:
    """A step function with `components` values per grid cell.

    Instances are treated as immutable: the value array is copied on
    construction and write-locked, and all arithmetic returns new objects.
    Construction checks the shape and that every value is finite
    (`all_finite`, one sum in the common case).  Solver inner loops work on
    the raw (cells, m) arrays and wrap a result once, at the API boundary.
    """

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        if vals.ndim == 1:
            vals = vals[:, None]
        if vals.ndim != 2 or vals.shape[0] != self.grid.cells:
            raise ShapeMismatch(
                f"values must have shape ({self.grid.cells}, m), got {np.shape(self.values)}"
            )
        if not all_finite(vals):
            raise ValueError("grid function values must be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def components(self) -> int:
        return self.values.shape[1]

    @classmethod
    def zeros(cls, grid: TimeGrid, components: int) -> "GridFunction":
        return cls(grid, np.zeros((grid.cells, components)))

    @classmethod
    def constant(cls, grid: TimeGrid, vec) -> "GridFunction":
        """Constant-in-time function with cell value `vec` (scalar or length-m)."""
        row = np.atleast_1d(np.asarray(vec, dtype=float))
        return cls(grid, np.tile(row, (grid.cells, 1)))

    def with_values(self, vals: np.ndarray) -> "GridFunction":
        return GridFunction(self.grid, vals)

    def refine(self, factor: int) -> "GridFunction":
        """The same step function represented on a grid with `factor` x cells."""
        require_integer("factor", factor, 1)
        fine = TimeGrid(self.grid.horizon, self.grid.cells * factor)
        return GridFunction(fine, np.repeat(self.values, factor, axis=0))

    def __add__(self, other: "GridFunction") -> "GridFunction":
        _check_same_shape(self, other)
        return self.with_values(self.values + other.values)

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        _check_same_shape(self, other)
        return self.with_values(self.values - other.values)

    def __neg__(self) -> "GridFunction":
        return self.with_values(-self.values)

    def __mul__(self, scalar: float) -> "GridFunction":
        return self.with_values(self.values * float(scalar))

    __rmul__ = __mul__


class PriceCurve(GridFunction):
    """A grid function whose value in every cell lies on the unit simplex."""

    _SIMPLEX_TOL = 1e-9

    def __post_init__(self):
        super().__post_init__()
        sums = self.values.sum(axis=1)
        if (np.abs(sums - 1.0) > self._SIMPLEX_TOL).any() or (self.values < -1e-12).any():
            raise ValueError("price curve must lie on the per-cell unit simplex")

    @classmethod
    def uniform(cls, grid: TimeGrid, goods: int) -> "PriceCurve":
        return cls(grid, np.full((grid.cells, goods), 1.0 / goods))


def all_finite(vals: np.ndarray) -> bool:
    """Whether every entry of `vals` is finite, at the cost of one sum.

    The sum is of squares, taken by `np.vdot`, which raises no floating
    point warning where `np.sum` warns on overflow.  A finite sum means
    every entry is finite; finite entries can still overflow it, so only a
    sum that is not finite falls back to the entrywise test.
    """
    return math.isfinite(np.vdot(vals, vals)) or bool(np.isfinite(vals).all())


def _check_same_shape(h: GridFunction, g: GridFunction) -> None:
    if h.grid != g.grid or h.components != g.components:
        raise ShapeMismatch(
            f"grid mismatch: ({h.grid}, m={h.components}) vs ({g.grid}, m={g.components})"
        )


def inner_product(h: GridFunction, g: GridFunction) -> float:
    """Exact L2 pairing of two step functions: dt * sum of cellwise dot products."""
    _check_same_shape(h, g)
    return float(h.grid.dt * np.sum(h.values * g.values))


def _l2(v: np.ndarray) -> np.float64:
    """The Euclidean norm of a real array by `np.linalg.norm`'s own formula,
    the root of one dot product of the array raveled in memory order, so
    with its bits on any layout, but without its per-call dispatch."""
    v = v.ravel(order="K")
    return np.sqrt(v.dot(v))


def norm(h: GridFunction) -> float:
    """L2 norm induced by `inner_product`."""
    return float(np.sqrt(h.grid.dt) * _l2(h.values))


def stack_components(fns: Sequence[GridFunction]) -> GridFunction:
    """Concatenate the component axes of same-grid functions into one function."""
    if not fns:
        raise ValueError("need at least one grid function to stack")
    grid = fns[0].grid
    for f in fns[1:]:
        if f.grid != grid:
            raise ShapeMismatch("all stacked functions must share the grid")
    return GridFunction(grid, np.hstack([f.values for f in fns]))


def split_components(h: GridFunction, blocks: int) -> list[GridFunction]:
    """Inverse of `stack_components` for equally sized blocks."""
    if h.components % blocks != 0:
        raise ShapeMismatch(f"cannot split {h.components} components into {blocks} blocks")
    width = h.components // blocks
    return [h.with_values(h.values[:, i * width : (i + 1) * width]) for i in range(blocks)]
