"""Two-level solver for quasi-variational inequalities with the split
structure (price set D, per-agent constraint map K(d), block operator F,
outer map f).

`solve_qvi` follows the reduction of the problem to a price-space VI:
evaluate the inner best responses x(d) on K(d), then move prices by a
projected step against h(d) = f(x(d)) (tatonnement: prices rise where
excess demand is positive).  The price step s starts at `OUTER_STEP0`
and then follows the rule of Malitsky & Mishchenko (2020),
    s <- min(sqrt(1 + theta) s, OUTER_STEP_SAFETY ||d - d_prev|| / ||h - h_prev||)
with theta the ratio of the last two steps, so it needs no setting.
Each inner solve runs to a tolerance tied to the last outer residual and
split over the agents, since excess demand sums their errors.
`solve_qvi_product` is an independent cross-check that runs one
extragradient iteration on the stacked (price, allocation) pair with the
constraint set frozen at the current price each step; its step shrinks by
the same rule as the inner solves (`vi.adaptive_step`), and its steps count
against `max_outer`.
`solve_qvi_truncated` intersects the constraint sets with balls of growing
radius and accepts the first radius whose solution stays strictly inside,
which upgrades to the untruncated problem by the usual convex-combination
argument.

Residual conventions: every certificate below is a natural-map residual
evaluated at the fixed gauge step `RESIDUAL_GAUGE` = 1.0, independent of
whatever internal steps the iterations used.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import InnerSolveFailure
from .grids import GridFunction, PriceCurve, TimeGrid, norm, split_components, stack_components
from .reports import CertReport
from .sets import (
    Ball,
    Intersection,
    SetDescriptor,
    membership_residual,
    project,
    project_values,
    sample_feasible,
)
from .vi import (
    OperatorHandle,
    adaptive_step,
    estimate_lipschitz,
    solve_vi_extragradient,
    vi_residual,
)

#: step at which every natural-map residual certificate is evaluated
RESIDUAL_GAUGE = 1.0
#: first price step of `solve_qvi`; later steps follow the measured ratio
OUTER_STEP0 = 0.5
#: fraction of the inverse local Lipschitz ratio of h the price step may reach
OUTER_STEP_SAFETY = 0.9

logger = logging.getLogger(__name__)


@dataclass
class QVIParams:
    """Tolerances, budgets, seed and start price; every solver adapts its own steps.

    `max_outer` bounds the price updates of either solver: outer iterations
    of `solve_qvi`, extragradient steps of `solve_qvi_product`.
    """

    outer_tol: float = 1e-7
    inner_tol: float = 1e-8
    max_outer: int = 2000
    max_inner: int = 20000
    seed: int = 0
    start_price: Optional[PriceCurve] = None


@dataclass
class QVIProblem:
    """Problem data for the split QVI.

    `constraint_map` sends a feasible price curve to one constraint set per
    agent; `agent_operators` are the diagonal blocks of the stacked
    operator; `outer_map` sends a stacked allocation to a price-space
    direction.  `warm_starts` must be feasible for every price the map can
    produce (probed on construction at the uniform price).
    """

    price_set: SetDescriptor
    constraint_map: Callable[[PriceCurve], list]
    agent_operators: list
    outer_map: Callable[[GridFunction], GridFunction]
    grid: TimeGrid
    goods: int
    warm_starts: list
    caps: Optional[tuple] = None

    def __post_init__(self):
        if len(self.agent_operators) != len(self.warm_starts):
            raise ValueError("one warm start per agent operator is required")
        probe = PriceCurve.uniform(self.grid, self.goods)
        sets = self.constraint_map(probe)
        if len(sets) != self.n_agents:
            raise ValueError("constraint_map must return one set per agent")
        for i, (s, w) in enumerate(zip(sets, self.warm_starts)):
            resid = membership_residual(w, s)
            if resid > 1e-9:
                raise ValueError(
                    f"warm start of agent {i} infeasible at the uniform price (residual {resid:.2e})"
                )

    @property
    def n_agents(self) -> int:
        return len(self.agent_operators)

    @property
    def operator(self) -> OperatorHandle:
        """The stacked block-diagonal operator on agent-major components."""

        def fn(x: GridFunction) -> GridFunction:
            blocks = split_components(x, self.n_agents)
            return stack_components([op(b) for op, b in zip(self.agent_operators, blocks)])

        tags = {op.monotonicity for op in self.agent_operators}
        tag = tags.pop() if len(tags) == 1 else "unknown"
        return OperatorHandle(fn, tag)


@dataclass
class QVISolveReport:
    """Solution pair with its full residual ledger."""

    price: PriceCurve
    allocation: GridFunction
    inner_reports: list
    outer_residual: float
    inner_residuals: np.ndarray
    iterations: int
    converged: bool
    truncation_radius_used: Optional[float] = None
    residual_history: Optional[np.ndarray] = None
    untruncated_check: Optional[CertReport] = None
    message: str = ""

    def agent_allocations(self) -> list:
        return split_components(self.allocation, self.inner_count)

    @property
    def inner_count(self) -> int:
        return len(self.inner_residuals)


def _agent_steps(prob: QVIProblem, params: QVIParams) -> list:
    """Per-agent extragradient steps: 0.9 / Lipschitz estimate near the warm start."""
    sets = prob.constraint_map(params.start_price or PriceCurve.uniform(prob.grid, prob.goods))
    return [
        0.9 / estimate_lipschitz(op, s, w, seed=params.seed + i)
        for i, (op, s, w) in enumerate(zip(prob.agent_operators, sets, prob.warm_starts))
    ]


def _best_responses(d, prob, params, tol, steps=None, starts=None):
    """Solve all inner VIs on K(d); returns (blocks, reports, gauge residuals).

    `starts` overrides the warm starts; the inner operators are strictly
    monotone for the supported utility families, so the certified limit is
    the same from any start and a continuation start only buys speed.
    Residuals above `tol` are returned, not raised: the caller decides.
    """
    sets = prob.constraint_map(d)
    steps = steps if steps is not None else _agent_steps(prob, params)
    starts = starts if starts is not None else prob.warm_starts
    reports = [
        solve_vi_extragradient(op, s, x0, step=step, tol=tol, max_iter=params.max_inner)
        for op, s, x0, step in zip(prob.agent_operators, sets, starts, steps)
    ]
    inner_res = np.array(
        [
            vi_residual(rep.solution, op, s, RESIDUAL_GAUGE)
            for rep, op, s in zip(reports, prob.agent_operators, sets)
        ]
    )
    return [rep.solution for rep in reports], reports, inner_res


def agent_best_responses(d: PriceCurve, prob: QVIProblem, params: QVIParams) -> GridFunction:
    """Stacked inner solutions x(d), each certified on its own K_i(d).

    Deterministic given the warm starts, the parameters and the seed; this
    is the selection of the (generally set-valued) inner solution map that
    the outer iteration works with.
    """
    if membership_residual(d, prob.price_set) > 1e-9:
        raise ValueError("price curve is not in the price set")
    blocks, _, inner_res = _best_responses(d, prob, params, params.inner_tol)
    failed = np.flatnonzero(inner_res > params.inner_tol).tolist()
    if failed:
        raise InnerSolveFailure(
            f"inner solves failed to certify at tol={params.inner_tol:g} for agents {failed}",
            failed_agents=failed,
        )
    return stack_components(blocks)


def outer_operator(d: PriceCurve, prob: QVIProblem, params: QVIParams) -> GridFunction:
    """The price-space direction f(x(d)); for economies, e - demand aggregated."""
    return prob.outer_map(agent_best_responses(d, prob, params))


def _outer_residual(d_vals, h_vals, prob):
    proj = project_values(d_vals - RESIDUAL_GAUGE * h_vals, prob.price_set, prob.grid)
    return float(np.sqrt(prob.grid.dt) * np.linalg.norm(d_vals - proj))


def solve_qvi(prob: QVIProblem, params: QVIParams = None) -> QVISolveReport:
    """Projected price iteration with certified inner solves.

    Convergence means both certificate families hold: the price-space
    natural-map residual at the gauge step is <= outer_tol, and every
    agent's residual on K_i(d) is <= inner_tol.  An inner solve that fails
    to certify ends the run with converged=False and the best certified
    pair so far (the failing iteration's own pair if none certified yet).
    Each outer iteration logs one DEBUG record: k, residual, price step,
    effective inner tolerance and the agents' extragradient iterations.
    """
    params = params or QVIParams()
    if params.max_outer < 1:
        raise ValueError("outer iteration budget must be positive")
    d = params.start_price or PriceCurve.uniform(prob.grid, prob.goods)
    steps = _agent_steps(prob, params)
    sigma, theta = OUTER_STEP0, np.inf

    history = []
    best = None
    best_res = np.inf
    prev_res = np.inf
    prev = None
    starts = None
    failure = ""
    k = 0
    for k in range(params.max_outer):
        # loose inner solves while far from the fixed point, exact near it
        if prev_res > 20 * params.outer_tol:
            # excess demand sums every agent's inner error, so split the share
            tol_eff = float(np.clip(0.05 * prev_res / prob.n_agents, params.inner_tol, 1e-4))
        else:
            tol_eff = params.inner_tol
        blocks, reports, inner_res = _best_responses(d, prob, params, tol_eff, steps, starts)
        starts = blocks
        x = stack_components(blocks)
        h = prob.outer_map(x)
        res = _outer_residual(d.values, h.values, prob)
        history.append(res)
        if prev is not None:
            # skip a repeated price (say, held while the inner tolerance
            # tightens): its zero ratio would freeze the step for good
            dd = float(np.linalg.norm(d.values - prev[0]))
            dh = float(np.linalg.norm(h.values - prev[1]))
            if dd > 0 and dh > 0:
                step = min(np.sqrt(1 + theta) * sigma, OUTER_STEP_SAFETY * dd / dh)
                sigma, theta = step, step / sigma
        prev = (d.values, h.values)
        logger.debug(
            "outer %d: residual %.3e step %.3e inner tol %.1e extragradient iterations %d",
            k, res, sigma, tol_eff, sum(rep.iterations for rep in reports),
        )
        failed = np.flatnonzero(inner_res > tol_eff)
        if failed.size:
            failure = (
                f"inner solves failed to certify at tol={tol_eff:g} for agents "
                f"{failed.tolist()} (residuals {[f'{r:.3e}' for r in inner_res[failed]]})"
            )
            best = best or (d, x, reports, inner_res, res)
            break
        prev_res = res
        if res < best_res:
            best_res = res
            best = (d, x, reports, inner_res, res)
        if res <= params.outer_tol and tol_eff <= params.inner_tol * (1 + 1e-12):
            return QVISolveReport(
                price=d,
                allocation=x,
                inner_reports=reports,
                outer_residual=res,
                inner_residuals=inner_res,
                iterations=k + 1,
                converged=True,
                residual_history=np.asarray(history),
            )
        d = PriceCurve(
            prob.grid, project_values(d.values - sigma * h.values, prob.price_set, prob.grid)
        )

    d, x, reports, inner_res, res = best
    return QVISolveReport(
        price=d,
        allocation=x,
        inner_reports=reports,
        outer_residual=res,
        inner_residuals=inner_res,
        iterations=k + 1,
        converged=False,
        residual_history=np.asarray(history),
        message=failure
        or f"outer iteration budget exhausted (best residual {res:.3e}, final step {sigma:.3e})",
    )


def check_truncation_interior(report: QVISolveReport, r: float) -> bool:
    """True when the stacked allocation lies strictly inside the radius-r ball."""
    return norm(report.allocation) < r - 1e-9


def default_radius_schedule(prob: QVIProblem, count: int = 6) -> list:
    """Doubling radii from 1 + sum of finite caps (caps bound the feasible set)."""
    if prob.caps is not None:
        base = 1.0 + float(sum(c for c in prob.caps if np.isfinite(c)))
    else:
        base = 1.0 + 4.0 * max(norm(w) for w in prob.warm_starts)
    return [base * 2.0**k for k in range(count)]


def _truncate_set(s: SetDescriptor, r: float) -> SetDescriptor:
    parts = s.parts if isinstance(s, Intersection) else (s,)
    return Intersection(parts + (Ball(r),))


def _untruncated_inner_check(report, prob, params, r):
    """Sampled Stampacchia check of the final pair on the untruncated sets.

    Samples are drawn at scale ~ r so some land beyond the truncation ball;
    strict interiority then extends the inequality by convexity, and this
    check confirms it numerically.
    """
    rng = np.random.default_rng(params.seed + 9091)
    sets = prob.constraint_map(report.price)
    blocks = report.agent_allocations()
    worst = np.inf
    witness = None
    per_agent = 24
    for i, (op, s, x_i) in enumerate(zip(prob.agent_operators, sets, blocks)):
        fx = op(x_i)
        for z in sample_feasible(s, x_i, max(1.0, r), rng, per_agent):
            val = float(np.sum(fx.values * (z.values - x_i.values)) * prob.grid.dt)
            if val < worst:
                worst, witness = val, (i, z)
    slack = max(1e-8, 100 * params.inner_tol)
    ok = worst >= -slack
    return CertReport(
        verdict=ok,
        residuals={"min_untruncated_margin": worst},
        witness=None if ok else witness,
        tolerance=slack,
        samples_used=per_agent * prob.n_agents,
        seed=params.seed + 9091,
        name="untruncated-inner",
    )


def solve_qvi_truncated(
    prob: QVIProblem, radii: Optional[Sequence[float]] = None, params: QVIParams = None
) -> QVISolveReport:
    """Solve with ball-truncated constraint sets over an increasing radius schedule.

    The first radius whose solution passes the strict interiority check is
    accepted and re-verified against the untruncated sets.  An exhausted
    schedule yields a converged=False report advising a larger radius,
    followed by the last radius's own failure message if it had one.
    """
    params = params or QVIParams()
    radii = list(radii) if radii is not None else default_radius_schedule(prob)
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValueError("radius schedule must be strictly increasing")

    probe_price = PriceCurve.uniform(prob.grid, prob.goods)
    last = None
    for r in radii:
        trunc_map = _make_truncated_map(prob.constraint_map, r)
        # scaled endowments stay feasible for every price (budget gap scales
        # down, caps and ball shrink with t), so they serve as warm starts
        # even when the ball excludes the endowment itself
        warm = [
            w if norm(w) < r else (0.99 * r / norm(w)) * w for w in prob.warm_starts
        ]
        for i, s in enumerate(trunc_map(probe_price)):
            if membership_residual(project(warm[i], s), s) > 1e-8:
                raise ValueError(f"truncated set of agent {i} appears empty at radius {r}")
        sub = replace(prob, constraint_map=trunc_map, warm_starts=warm)
        report = solve_qvi(sub, params)
        last = report
        if report.converged and check_truncation_interior(report, r):
            check = _untruncated_inner_check(report, prob, params, r)
            if check.verdict:
                report.truncation_radius_used = r
                report.untruncated_check = check
                return report
            report.message = "interior solution failed the untruncated re-verification"

    # keep why the last radius failed (inner failure, outer budget,
    # re-verification) after the advice; a bare radius note would hide it
    reason = f"; last radius: {last.message}" if last.message else ""
    last.converged = False
    last.truncation_radius_used = None
    last.message = (
        "radius schedule exhausted without a strictly interior solution; "
        f"retry with a larger coercivity radius{reason}"
    )
    return last


def _make_truncated_map(constraint_map, r):
    def trunc_map(p):
        return [_truncate_set(s, r) for s in constraint_map(p)]

    return trunc_map


def solve_qvi_product(prob: QVIProblem, params: QVIParams = None) -> QVISolveReport:
    """Single-loop extragradient on the stacked (price, allocation) pair.

    The moving constraint set is frozen at the current price within each
    step.  The step starts at 0.7 / max(sqrt(n), L) and then only shrinks,
    by `vi.adaptive_step` on the stacked operator (h, F_1, ..., F_n).  Each
    step moves the price once, so the run counts against `max_outer`.
    Every 10th iteration checks both certificates and logs one DEBUG record:
    k, outer residual, worst inner residual and step.  Contraction is not
    guaranteed for this path; non-convergence is reported, never masked.
    On convergence the certificates are identical to `solve_qvi`'s.
    """
    params = params or QVIParams()
    if params.max_outer < 1:
        raise ValueError("outer iteration budget must be positive")
    grid = prob.grid

    d = params.start_price or PriceCurve.uniform(grid, prob.goods)
    sets = prob.constraint_map(d)
    xs = [project(w, s) for w, s in zip(prob.warm_starts, sets)]

    l_blocks = max(
        estimate_lipschitz(op, s, w, seed=params.seed + i)
        for i, (op, s, w) in enumerate(zip(prob.agent_operators, sets, prob.warm_starts))
    )
    # the price block of the operator is affine in x with gain <= sqrt(n)
    gamma = 0.7 / max(np.sqrt(prob.n_agents), l_blocks)

    check_every = 10
    history = []
    best = None
    best_score = np.inf
    k = 0
    for k in range(params.max_outer):
        x = stack_components(xs)
        h = prob.outer_map(x)
        fs = [op(x_i) for op, x_i in zip(prob.agent_operators, xs)]

        if k % check_every == 0:
            outer_res = _outer_residual(d.values, h.values, prob)
            inner_res = np.array(
                [
                    vi_residual(x_i, op, s, RESIDUAL_GAUGE)
                    for x_i, op, s in zip(xs, prob.agent_operators, sets)
                ]
            )
            worst_inner = float(inner_res.max())
            logger.debug(
                "product %d: residual %.3e worst inner residual %.3e step %.3e",
                k, outer_res, worst_inner, gamma,
            )
            score = max(outer_res, worst_inner)
            history.append(score)
            if score < best_score:
                best_score = score
                best = (d, x, outer_res, inner_res)
            if outer_res <= params.outer_tol and np.all(inner_res <= params.inner_tol):
                return QVISolveReport(
                    price=d,
                    allocation=x,
                    inner_reports=[],
                    outer_residual=outer_res,
                    inner_residuals=inner_res,
                    iterations=k + 1,
                    converged=True,
                    residual_history=np.asarray(history),
                    message="product-space path",
                )

        # extragradient step with the constraint set frozen at the current price
        ys = [
            x_i.with_values(project_values(x_i.values - gamma * f.values, s, grid))
            for x_i, f, s in zip(xs, fs, sets)
        ]
        y = stack_components(ys)
        hy = prob.outer_map(y)
        fys = [op(y_i) for op, y_i in zip(prob.agent_operators, ys)]
        d = PriceCurve(grid, project_values(d.values - gamma * hy.values, prob.price_set, grid))
        xs = [
            x_i.with_values(project_values(x_i.values - gamma * fy.values, s, grid))
            for x_i, fy, s in zip(xs, fys, sets)
        ]
        # the stacked operator is G = (h, F_1, ..., F_n), so h's change counts too
        dF = np.concatenate([f.values - fy.values for f, fy in zip(fs, fys)], axis=1)
        dG = np.hypot(np.linalg.norm(h.values - hy.values), np.linalg.norm(dF))
        gamma = adaptive_step(gamma, np.linalg.norm(x.values - y.values), dG)
        sets = prob.constraint_map(d)

    d, x, outer_res, inner_res = best
    return QVISolveReport(
        price=d,
        allocation=x,
        inner_reports=[],
        outer_residual=outer_res,
        inner_residuals=inner_res,
        iterations=k + 1,
        converged=False,
        residual_history=np.asarray(history),
        message=(
            "product-space path: iteration budget exhausted "
            f"(best residual {best_score:.3e}, final step {gamma:.3e})"
        ),
    )
