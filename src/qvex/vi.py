"""Variational inequality core: natural-map residuals and an extragradient
solver over any projectable set.

The solver is Korpelevich's two-projection extragradient iteration
    y = P_C(x - g F(x));   x+ = P_C(x - g F(y))
which converges for monotone Lipschitz operators when g < 1/L.  The step
starts at 0.9 / L_hat with L_hat a finite-difference Lipschitz estimate and
adapts after every iteration by the self-adaptive rule of Yang & Liu (2019),
    g <- min(g, STEP_SAFETY * ||x - y|| / ||F(x) - F(y)||),
so it only ever shrinks, and only where the local Lipschitz ratio demands.
`adaptive_step` is that rule.

Operators map raw (cells, m) value arrays (`OperatorHandle.values`), and
the solvers and probes iterate on those arrays: the extragradient loop
builds no `GridFunction` and wraps its result once, for the report.  Grid
functions are the API boundary; `op(x)` on one wraps the array map.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import NumericFailure, require_integer, require_positive_real
from .grids import GridFunction, _l2, all_finite, norm
from .sets import SetDescriptor, project_values, sample_feasible_blocks

#: fraction of the inverse local Lipschitz ratio the adaptive step may reach
STEP_SAFETY = 0.5
#: feasible point pairs `estimate_lipschitz` differences
LIPSCHITZ_PROBES = 8


def adaptive_step(gamma: float, dx: float, dF: float) -> float:
    """The Yang & Liu step update from ||x - y|| = dx and ||F(x) - F(y)|| = dF.

    dF = 0 leaves the step as it is: a locally constant operator bounds
    nothing.
    """
    return min(gamma, STEP_SAFETY * dx / dF) if dF > 0 else gamma


@dataclass(frozen=True)
class OperatorHandle:
    """Deterministic evaluation contract for a map F on grid functions.

    `fn` maps the (cells, m) value array of a grid function to the array of
    its image, of the same shape, and must not write to its argument (the
    solvers and probes keep their iterates and samples in it).  `values` is
    the checked array entry point that every caller in qvex uses; `op(x)`
    on a `GridFunction` wraps it for callers outside.
    """

    fn: Callable[[np.ndarray], np.ndarray]

    def values(self, v: np.ndarray) -> np.ndarray:
        """F at the values v; NumericFailure when F changes the shape,
        ValueError when a value of F is not finite."""
        out = self.fn(v)
        if out.shape != v.shape:
            raise NumericFailure(f"operator changed shape: {v.shape} -> {out.shape}")
        if not all_finite(out):
            raise ValueError("operator values must be finite")
        return out

    def __call__(self, x: GridFunction) -> GridFunction:
        return x.with_values(self.values(x.values))


@dataclass
class SolveReport:
    """Result of one VI solve, with the full residual trace."""

    solution: GridFunction
    iterations: int
    final_residual: float
    residual_history: np.ndarray
    converged: bool
    step_used: float


def vi_residual(x: GridFunction, op: OperatorHandle, C: SetDescriptor, gamma: float) -> float:
    """Natural-map residual ||x - P_C(x - gamma F(x))||; zero exactly on solutions."""
    require_positive_real("gamma", gamma)
    v = x.values
    r = v - project_values(v - gamma * op.values(v), C, x.grid)
    return float(np.sqrt(x.grid.dt) * _l2(r))


def estimate_lipschitz(
    op: OperatorHandle,
    C: SetDescriptor,
    around: GridFunction,
    seed: int = 0,
) -> float:
    """Finite-difference Lipschitz estimate from `LIPSCHITZ_PROBES` random
    feasible probe pairs.

    The probe scale is local to `around`; an optimistic (small) estimate
    gives a long step and relies on the solver's adaptive step rule to
    shrink it where needed, which beats a globally safe but tiny step.
    """
    rng = np.random.default_rng(seed)
    scale = 0.25 * (1.0 + norm(around))
    grid = around.grid
    pts = np.concatenate(
        list(sample_feasible_blocks(C, around.values, grid, scale, rng, 2 * LIPSCHITZ_PROBES))
    )
    sqdt = np.sqrt(grid.dt)
    best = 0.0
    for a, b in zip(pts[::2], pts[1::2]):
        gap = float(sqdt * _l2(a - b))
        if gap < 1e-12:
            continue
        best = max(best, float(sqdt * _l2(op.values(a) - op.values(b))) / gap)
    return max(best, 1e-8)


def solve_vi_extragradient(
    op: OperatorHandle,
    C: SetDescriptor,
    x0: GridFunction,
    step: Optional[float] = None,
    tol: float = 1e-8,
    max_iter: int = 10000,
    seed: int = 0,
) -> SolveReport:
    """Run the extragradient iteration from x0 until it is certified at `tol`.

    The iteration stops when the residual at the current step g satisfies
    res <= tol * min(1, g).  Since ||R_g|| is nondecreasing in g and
    ||R_g|| / g is nonincreasing (Gafni & Bertsekas 1984), this bounds the
    natural-map residual at unit step by `tol` as well.  On budget
    exhaustion the best iterate seen is returned with converged=False, and
    `step_used` is the step its residual was measured at; nothing is
    raised, so callers can inspect the trace.  A `step` of 0 or an infinite
    `tol` would pass any point, so a given step and `tol` must be finite
    and positive, and `max_iter` an integer >= 1.
    """
    require_positive_real("tol", tol)
    require_integer("max_iter", max_iter, 1)
    grid = x0.grid
    if step is None:
        step = 0.9 / estimate_lipschitz(op, C, x0, seed=seed)
    gamma = require_positive_real("step", step)
    sqdt = np.sqrt(grid.dt)

    x = project_values(x0.values, C, grid)
    history = []
    best_vals, best_res, best_gamma = x, np.inf, gamma
    k = 0
    for k in range(max_iter):
        fx = op.values(x)
        y = project_values(x - gamma * fx, C, grid)
        gap = _l2(x - y)
        res = float(sqdt * gap)
        history.append(res)
        if res < best_res:
            best_vals, best_res, best_gamma = x, res, gamma
        if res <= tol * min(1.0, gamma):
            return SolveReport(x0.with_values(x), k, res, np.asarray(history), True, gamma)
        fy = op.values(y)
        x_next = project_values(x - gamma * fy, C, grid)
        gamma = adaptive_step(gamma, float(gap), float(_l2(fx - fy)))
        x = x_next

    return SolveReport(
        x0.with_values(best_vals), k + 1, best_res, np.asarray(history), False, best_gamma
    )
