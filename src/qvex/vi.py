"""Variational inequality core: natural-map residuals and a
forward-reflected-backward solver over any projectable set.

The solver is the forward-reflected-backward iteration of Malitsky & Tam
(2020),
    x+ = P_C(x - g F(x) - g_prev (F(x) - F(x_prev))),
one projection and one operator evaluation per step, which converges for
monotone Lipschitz operators when g < 1/(2L).  The step starts at 0.9 / L_hat
with L_hat the ratio ||F(y) - F(x)|| / ||y - x|| between the start x and
its natural-map point y = P_C(x - F(x)) (`estimate_lipschitz`), so no
random numbers are drawn, and adapts after every iteration by the
self-adaptive rule of Yang & Liu (2019),
    g <- min(g, STEP_SAFETY * ||x+ - x|| / ||F(x+) - F(x)||),
so it only ever shrinks, and only where the local Lipschitz ratio demands;
`STEP_SAFETY` < 1/2 keeps it inside that bound.  `adaptive_step` is that
rule.

Operators map raw (cells, m) value arrays (`OperatorHandle.values`), and
the solvers and probes iterate on those arrays: the solver loop builds no
`GridFunction` and wraps its result once, for the report.  Grid functions
are the API boundary; `op(x)` on one wraps the array map.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import NumericFailure, require_integer, require_positive_real
from .grids import GridFunction, _l2, all_finite
from .sets import SetDescriptor, project_values

#: fraction of the inverse local Lipschitz ratio the adaptive step may reach;
#: forward-reflected-backward needs it below 1/2
STEP_SAFETY = 0.45


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


def estimate_lipschitz(op: OperatorHandle, C: SetDescriptor, around: GridFunction) -> float:
    """Two-point Lipschitz ratio ||F(y) - F(x)|| / ||y - x|| at x = P_C(around)
    and its natural-map point at the unit step, y = P_C(x - F(x)).

    Two projections and two operator evaluations.  The ratio is local and
    optimistic: it gives a long first step and relies on the solver's
    adaptive step rule to shrink it where needed, which beats a globally
    safe but tiny step.  It is floored at 1e-8.  Where it measures nothing
    (x = y, or F equal at both) it is 1: no ratio then bounds the step,
    and a long one would only buy rounding in the projection of the far
    point it reaches, so the first step stays just under the unit step.
    """
    grid = around.grid
    x = project_values(around.values, C, grid)
    fx = op.values(x)
    y = project_values(x - fx, C, grid)
    gap = float(_l2(y - x))
    dF = float(_l2(op.values(y) - fx)) if gap > 0.0 else 0.0
    return max(dF / gap, 1e-8) if dF > 0.0 else 1.0


def solve_vi_extragradient(
    op: OperatorHandle,
    C: SetDescriptor,
    x0: GridFunction,
    step: Optional[float] = None,
    tol: float = 1e-8,
    max_iter: int = 10000,
) -> SolveReport:
    """Run forward-reflected-backward from x0 until it is certified at `tol`.

    Despite the name, the iteration is the forward-reflected-backward one
    of the module docstring, started from x_0 = P_C(x0) with no reflected
    term.  P_C is nonexpansive, so the step's own projection bounds the
    natural-map residual of x_k:
        ||R_{g_k}(x_k)|| <= ||x_k - x_{k+1}|| + g_{k-1} ||F(x_k) - F(x_{k-1})||.
    The iteration stops when that bound is <= tol * min(1, g_k) and returns
    x_k, a projection output and so feasible.  Since ||R_g|| is
    nondecreasing in g and ||R_g|| / g is nonincreasing (Gafni & Bertsekas
    1984), this bounds the natural-map residual at unit step by `tol` as
    well.  `residual_history` holds the bound of every iterate.  On budget
    exhaustion the iterate with the least bound is returned with
    converged=False, that bound as `final_residual` and the step g_k it
    bounds the residual at as `step_used`; nothing is raised, so callers
    can inspect the trace.  A `step` of 0 or an infinite `tol` would pass
    any point, so a given step and `tol` must be finite and positive, and
    `max_iter` an integer >= 1.
    """
    require_positive_real("tol", tol)
    require_integer("max_iter", max_iter, 1)
    grid = x0.grid
    if step is None:
        step = 0.9 / estimate_lipschitz(op, C, x0)
    gamma = require_positive_real("step", step)
    sqdt = np.sqrt(grid.dt)

    x = project_values(x0.values, C, grid)
    fx = op.values(x)
    # g_{k-1} (F(x_k) - F(x_{k-1})) and its norm; no reflection at the start
    reflect, reflect_gap = 0.0, 0.0
    history = []
    best_vals, best_res, best_gamma = x, np.inf, gamma
    k = 0
    for k in range(max_iter):
        x_next = project_values(x - gamma * fx - reflect, C, grid)
        gap = float(_l2(x - x_next))
        res = float(sqdt * (gap + reflect_gap))
        history.append(res)
        if res < best_res:
            best_vals, best_res, best_gamma = x, res, gamma
        if res <= tol * min(1.0, gamma):
            return SolveReport(x0.with_values(x), k, res, np.asarray(history), True, gamma)
        f_next = op.values(x_next)
        df = f_next - fx
        df_gap = float(_l2(df))
        reflect, reflect_gap = gamma * df, gamma * df_gap
        gamma = adaptive_step(gamma, gap, df_gap)
        x, fx = x_next, f_next

    return SolveReport(
        x0.with_values(best_vals), k + 1, best_res, np.asarray(history), False, best_gamma
    )
