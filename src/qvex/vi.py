"""Variational inequality core: natural-map residuals, an extragradient
solver over any projectable set, and a sampled Minty cross-check.

The solver is Korpelevich's two-projection extragradient iteration
    y = P_C(x - g F(x));   x+ = P_C(x - g F(y))
which converges for monotone Lipschitz operators when g < 1/L.  The step
starts at 0.9 / L_hat with L_hat a finite-difference Lipschitz estimate and
adapts after every iteration by the self-adaptive rule of Yang & Liu (2019),
    g <- min(g, STEP_SAFETY * ||x - y|| / ||F(x) - F(y)||),
so it only ever shrinks, and only where the local Lipschitz ratio demands.
`adaptive_step` is that rule; the product-space QVI solve uses it too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import NumericFailure, SamplingFailure
from .grids import GridFunction, inner_product, norm
from .reports import CertReport
from .sets import SetDescriptor, project_values, sample_feasible

#: fraction of the inverse local Lipschitz ratio the adaptive step may reach
STEP_SAFETY = 0.5


def adaptive_step(gamma: float, dx: float, dF: float) -> float:
    """The Yang & Liu step update from ||x - y|| = dx and ||F(x) - F(y)|| = dF.

    dF = 0 leaves the step as it is: a locally constant operator bounds
    nothing.
    """
    return min(gamma, STEP_SAFETY * dx / dF) if dF > 0 else gamma


@dataclass(frozen=True)
class OperatorHandle:
    """Deterministic evaluation contract for a map F on grid functions.

    `monotonicity` is a declared tag ("monotone", "pseudomonotone" or
    "unknown"); probes test it, solvers never rely on it.
    """

    fn: Callable[[GridFunction], GridFunction]
    monotonicity: str = "unknown"

    def __call__(self, x: GridFunction) -> GridFunction:
        out = self.fn(x)
        if out.values.shape != x.values.shape:
            raise NumericFailure(
                f"operator changed shape: {x.values.shape} -> {out.values.shape}"
            )
        return out


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
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    fx = op(x).values
    if not np.all(np.isfinite(fx)):
        raise NumericFailure("operator returned non-finite values")
    y = project_values(x.values - gamma * fx, C, x.grid)
    return float(np.sqrt(x.grid.dt) * np.linalg.norm(x.values - y))


def estimate_lipschitz(
    op: OperatorHandle,
    C: SetDescriptor,
    around: GridFunction,
    seed: int = 0,
    probes: int = 8,
    scale: Optional[float] = None,
) -> float:
    """Finite-difference Lipschitz estimate from random feasible probe pairs.

    The default probe scale is local to `around`; an optimistic (small)
    estimate gives a long step and relies on the solver's adaptive step
    rule to shrink it where needed, which beats a globally safe but tiny
    step.
    """
    rng = np.random.default_rng(seed)
    scale = scale if scale is not None else 0.25 * (1.0 + norm(around))
    pts = sample_feasible(C, around, scale, rng, 2 * probes)
    best = 0.0
    for a, b in zip(pts[::2], pts[1::2]):
        gap = norm(a - b)
        if gap < 1e-12:
            continue
        best = max(best, norm(op(a) - op(b)) / gap)
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
    raised, so callers can inspect the trace.
    """
    grid = x0.grid
    gamma = step if step is not None else 0.9 / estimate_lipschitz(op, C, x0, seed=seed)
    sqdt = np.sqrt(grid.dt)

    x = project_values(x0.values, C, grid)
    history = []
    best_vals, best_res, best_gamma = x, np.inf, gamma
    k = 0
    for k in range(max_iter):
        xf = x0.with_values(x)
        fx = op(xf).values
        if not np.all(np.isfinite(fx)):
            raise NumericFailure("operator returned non-finite values during solve")
        y = project_values(x - gamma * fx, C, grid)
        res = float(sqdt * np.linalg.norm(x - y))
        history.append(res)
        if res < best_res:
            best_vals, best_res, best_gamma = x, res, gamma
        if res <= tol * min(1.0, gamma):
            return SolveReport(x0.with_values(x), k, res, np.asarray(history), True, gamma)
        fy = op(x0.with_values(y)).values
        if not np.all(np.isfinite(fy)):
            raise NumericFailure("operator returned non-finite values during solve")
        x_next = project_values(x - gamma * fy, C, grid)
        gamma = adaptive_step(
            gamma, float(np.linalg.norm(x - y)), float(np.linalg.norm(fx - fy))
        )
        x = x_next

    return SolveReport(
        x0.with_values(best_vals), k + 1, best_res, np.asarray(history), False, best_gamma
    )


def minty_certificate(
    x: GridFunction,
    op: OperatorHandle,
    C: SetDescriptor,
    samples: int = 64,
    seed: int = 0,
    slack: float = 1e-9,
) -> CertReport:
    """Sampled Minty check: <<F(y), y - x>> >= 0 over random feasible y.

    For continuous pseudomonotone operators the Minty and Stampacchia
    solution sets coincide, so this certifies VI candidates from the other
    direction than the natural-map residual.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    scale = 1.0 + norm(x)
    try:
        ys = sample_feasible(C, x, scale, rng, samples)
    except Exception as exc:
        raise SamplingFailure(f"could not sample feasible points: {exc}") from exc
    worst_val, witness = np.inf, None
    for y in ys:
        val = inner_product(op(y), y - x)
        if val < worst_val:
            worst_val, witness = val, y
    ok = worst_val >= -slack
    return CertReport(
        verdict=ok,
        residuals={"min_inner_product": worst_val},
        witness=None if ok else witness,
        tolerance=slack,
        samples_used=samples,
        seed=seed,
        name="minty",
    )
