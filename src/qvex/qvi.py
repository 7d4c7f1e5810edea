"""Two-level solver for quasi-variational inequalities with the split
structure (price set D, the per-cell unit simplex on the warm starts' grid;
per-agent constraint map K(d); block operator F; outer map f).

`solve_qvi` follows the reduction of the problem to a price-space VI:
evaluate the inner best responses x(d) on K(d), then move prices by a
projected step against h(d) = f(x(d)) (tatonnement: prices rise where
excess demand is positive).  A problem with an exact demand map (economies
of the built-in utility families) takes each best response from it; other
problems, and every truncated solve, run forward-reflected-backward
(`solve_vi_extragradient`) on the inner VIs.
Either way each inner solution is certified by its natural-map residual.
The price step s starts at `OUTER_STEP0` and then follows the rule of
Malitsky & Mishchenko (2020),
    s <- min(sqrt(1 + theta) s, OUTER_STEP_SAFETY ||d - d_prev|| / ||h - h_prev||)
with theta the ratio of the last two steps, so it needs no setting.
Each inner solution must certify at a tolerance tied to the last outer
residual and split over the agents, since excess demand sums their errors;
the run converges once both certificates hold at the stated tolerances.
`solve_qvi_truncated` intersects the constraint sets with balls of growing
radius and accepts the first radius whose solution stays strictly inside,
which upgrades to the untruncated problem by the usual convex-combination
argument; the accepted pair must also certify on the untruncated sets.
Its inner VIs run forward-reflected-backward, one exact budget-caps-ball
projection per iteration.

Residual conventions: every certificate below is a natural-map residual
evaluated at the fixed gauge step `RESIDUAL_GAUGE` = 1.0, independent of
whatever internal steps the iterations used.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import NonConvergence, require_integer, require_positive_real
from .grids import GridFunction, PriceCurve, TimeGrid, _l2, norm, split_components, stack_components
from .reports import CertReport
from .sets import (
    Ball,
    Intersection,
    PointwiseSimplex,
    membership_residual,
    project,
    project_values,
)
from .vi import (
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
#: iteration budget of each iterative inner solve; economy solves take
#: exact demand, so only truncated solves and problems without a demand map
#: spend it
MAX_INNER = 20000
#: radii in `default_radius_schedule`, each twice the last
RADIUS_COUNT = 6

logger = logging.getLogger(__name__)


def require_radius_schedule(name: str, radii) -> tuple:
    """`radii` as a tuple of floats; ValueError, naming it, unless they are
    finite positive numbers, at least one, strictly increasing."""
    radii = tuple(require_positive_real(f"{name}[{i}]", r) for i, r in enumerate(radii))
    if not radii:
        raise ValueError(f"{name}: must hold at least one radius")
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValueError(f"{name}: must be strictly increasing, got {list(radii)}")
    return radii


@dataclass(frozen=True)
class QVIParams:
    """Tolerances, outer budget, seed and start price; every solver adapts
    its own steps.

    `max_outer` bounds the outer iterations (price updates) of a solve.
    The solves draw no random numbers, so `seed` does not move them: it
    seeds the sampled certificate that `qvex solve` runs on the result and
    the structural probes of `qvex probes`.
    Every field but `start_price` is checked on construction (also through
    `dataclasses.replace`): the tolerances must be finite and positive,
    `max_outer` an integer >= 1 and `seed` an integer >= 0; a ValueError
    names the field first.  `start_price` is checked against the problem
    when a solve starts.  Scenario files set the same fields.
    """

    outer_tol: float = 1e-7
    inner_tol: float = 1e-8
    max_outer: int = 2000
    seed: int = 0
    start_price: Optional[PriceCurve] = None

    def __post_init__(self):
        require_positive_real("outer_tol", self.outer_tol)
        require_positive_real("inner_tol", self.inner_tol)
        require_integer("max_outer", self.max_outer, 1)
        require_integer("seed", self.seed, 0)


@dataclass
class QVIProblem:
    """Problem data for the split QVI.

    Prices live on the per-cell unit simplex.  `constraint_map` sends a
    price curve to one constraint set per agent; `agent_operators` are the
    diagonal blocks of the stacked operator; `outer_map` sends a stacked
    allocation to a price-space direction.  `warm_starts`, one per
    operator, fix `grid` and `goods` (a ValueError names them unless they
    share one grid and one goods count) and must be feasible for every
    price the map can produce (probed on construction at the uniform
    price).  `demand`, when given, is an exact inner solver: `demand(i, d)`
    returns the values of agent i's solution on K_i(d) and raises
    `NonConvergence` when its search runs out; without it the inner VIs are
    solved iteratively by `solve_vi_extragradient`.
    """

    constraint_map: Callable[[PriceCurve], list]
    agent_operators: list
    outer_map: Callable[[GridFunction], GridFunction]
    warm_starts: list
    caps: Optional[tuple] = None
    demand: Optional[Callable[[int, PriceCurve], np.ndarray]] = None
    grid: TimeGrid = field(init=False)
    goods: int = field(init=False)

    def __post_init__(self):
        shapes = list(dict.fromkeys((w.grid, w.components) for w in self.warm_starts))
        if len(shapes) != 1 or len(self.warm_starts) != self.n_agents:
            raise ValueError(
                f"warm_starts: need one per agent operator ({self.n_agents}), all on one grid "
                f"with one goods count, got {len(self.warm_starts)} on (grid, goods) {shapes}"
            )
        ((self.grid, self.goods),) = shapes
        sets = self.constraint_map(PriceCurve.uniform(self.grid, self.goods))
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

    def require_price(self, name: str, d: PriceCurve) -> PriceCurve:
        """`d`; ValueError, naming it, unless it is on the grid, one column per good."""
        if d.grid != self.grid or d.components != self.goods:
            raise ValueError(
                f"{name}: need {self.goods} goods on {self.grid}, "
                f"got {d.components} goods on {d.grid}"
            )
        return d


@dataclass
class QVISolveReport:
    """Solution pair with its full residual ledger."""

    price: PriceCurve
    allocation: GridFunction
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


def _start_price(prob: QVIProblem, params: QVIParams) -> PriceCurve:
    """`params.start_price`, checked by `QVIProblem.require_price`, or the uniform price."""
    d = params.start_price
    if d is None:
        return PriceCurve.uniform(prob.grid, prob.goods)
    return prob.require_price("start_price", d)


def _agent_steps(prob: QVIProblem, params: QVIParams) -> list:
    """Per-agent first inner steps: 0.9 / Lipschitz estimate near the warm start."""
    sets = prob.constraint_map(_start_price(prob, params))
    return [
        0.9 / estimate_lipschitz(op, s, w)
        for op, s, w in zip(prob.agent_operators, sets, prob.warm_starts)
    ]


def _best_responses(d, prob, params, tol, steps=None, starts=None):
    """Solve all inner VIs on K(d); returns (blocks, summed iterative-solver
    iterations, gauge residuals, why each failed demand failed).

    With an exact demand map each agent's block is its demand, and a demand
    that raises `NonConvergence` leaves the agent's start with residual inf
    and its error text under the agent's index; otherwise each block comes
    from `solve_vi_extragradient`.
    `starts` overrides the warm starts; the inner operators are strictly
    monotone for the supported utility families, so the certified limit is
    the same from any start and a continuation start only buys speed.
    Residuals above `tol` are returned, not raised: the caller decides.
    """
    sets = prob.constraint_map(d)
    starts = starts if starts is not None else prob.warm_starts
    failed = {}
    iterations = 0
    if prob.demand is None:
        steps = steps if steps is not None else _agent_steps(prob, params)
        reports = [
            solve_vi_extragradient(op, s, x0, step=step, tol=tol, max_iter=MAX_INNER)
            for op, s, x0, step in zip(prob.agent_operators, sets, starts, steps)
        ]
        blocks = [rep.solution for rep in reports]
        iterations = sum(rep.iterations for rep in reports)
    else:
        blocks = []
        for i, x0 in enumerate(starts):
            try:
                blocks.append(x0.with_values(prob.demand(i, d)))
            except NonConvergence as exc:
                blocks.append(x0)
                failed[i] = str(exc)
    return blocks, iterations, _agent_residuals(blocks, prob, sets, failed), failed


def _agent_residuals(blocks, prob, sets, failed=()):
    """Each agent's natural-map residual on its set at the gauge step; inf
    for the `failed` agents."""
    return np.array(
        [
            np.inf if i in failed else vi_residual(x, op, s, RESIDUAL_GAUGE)
            for i, (x, op, s) in enumerate(zip(blocks, prob.agent_operators, sets))
        ]
    )


def _outer_residual(d_vals, h_vals, prob):
    proj = project_values(d_vals - RESIDUAL_GAUGE * h_vals, PointwiseSimplex(), prob.grid)
    return float(np.sqrt(prob.grid.dt) * _l2(d_vals - proj))


def solve_qvi(prob: QVIProblem, params: QVIParams = None) -> QVISolveReport:
    """Projected price iteration with certified inner solves.

    Convergence means both certificate families hold: the price-space
    natural-map residual at the gauge step is <= outer_tol, and every
    agent's residual on K_i(d) is <= inner_tol; the run stops at the first
    iterate where both hold.  The loose-then-tight inner tolerance schedule
    only sets the iterative inner solves' tolerance and the failure level.
    An inner solve that fails to certify ends the run with converged=False
    and the best certified pair so far (the failing iteration's own pair if
    none certified yet); the message ends with each failed demand's own
    error text.
    An exhausted budget says why the step did not bring the price home when
    it can tell: the step never moved because excess demand never changed,
    or it collapsed to at most 1e-9 times `OUTER_STEP0`.
    Each outer iteration logs one DEBUG record: k, residual, price step,
    effective inner tolerance and the agents' iterative-solver iterations
    (0 on exact demand).  A ValueError naming `start_price` rejects a start
    price on another grid or with another number of goods.
    """
    params = params or QVIParams()
    d = _start_price(prob, params)
    steps = _agent_steps(prob, params) if prob.demand is None else None
    sigma, theta = OUTER_STEP0, np.inf

    history = []
    best = None
    best_res = np.inf
    prev_res = np.inf
    prev = None
    starts = None
    failure = ""
    # step updates made, and updates skipped because excess demand stood still
    step_updates = flat_steps = 0
    k = 0
    for k in range(params.max_outer):
        # loose inner solves while far from the fixed point, exact near it
        if prev_res > 20 * params.outer_tol:
            # excess demand sums every agent's inner error, so split the share
            tol_eff = float(np.clip(0.05 * prev_res / prob.n_agents, params.inner_tol, 1e-4))
        else:
            tol_eff = params.inner_tol
        blocks, eg_iters, inner_res, why = _best_responses(d, prob, params, tol_eff, steps, starts)
        starts = blocks
        x = stack_components(blocks)
        h = prob.outer_map(x)
        res = _outer_residual(d.values, h.values, prob)
        history.append(res)
        if prev is not None:
            # skip a repeated price (say, held while the inner tolerance
            # tightens): its zero ratio would freeze the step for good
            dd = float(_l2(d.values - prev[0]))
            dh = float(_l2(h.values - prev[1]))
            if dd > 0 and dh > 0:
                step = min(np.sqrt(1 + theta) * sigma, OUTER_STEP_SAFETY * dd / dh)
                sigma, theta = step, step / sigma
                step_updates += 1
            elif dd > 0:
                flat_steps += 1
        prev = (d.values, h.values)
        logger.debug(
            "outer %d: residual %.3e step %.3e inner tol %.1e inner iterations %d",
            k, res, sigma, tol_eff, eg_iters,
        )
        failed = np.flatnonzero(inner_res > tol_eff)
        if failed.size:
            failure = (
                f"inner solves failed to certify at tol={tol_eff:g} for agents "
                f"{failed.tolist()} (residuals {[f'{r:.3e}' for r in inner_res[failed]]})"
                + "".join(f"; agent {i}: {text}" for i, text in why.items())
            )
            best = best or (d, x, inner_res, res)
            break
        prev_res = res
        if res < best_res:
            best_res = res
            best = (d, x, inner_res, res)
        if res <= params.outer_tol and inner_res.max() <= params.inner_tol:
            return QVISolveReport(
                price=d,
                allocation=x,
                outer_residual=res,
                inner_residuals=inner_res,
                iterations=k + 1,
                converged=True,
                residual_history=np.asarray(history),
            )
        d = project(d - sigma * h, PointwiseSimplex())

    d, x, inner_res, res = best
    if not failure:
        failure = (
            f"outer iteration budget exhausted (best residual {res:.3e}, final step {sigma:.3e})"
        )
        if flat_steps and not step_updates:
            failure += ": price step never moved: excess demand did not change"
        elif sigma <= 1e-9 * OUTER_STEP0:
            failure += f": price step collapsed to at most 1e-9 times its start {OUTER_STEP0:g}"
    return QVISolveReport(
        price=d,
        allocation=x,
        outer_residual=res,
        inner_residuals=inner_res,
        iterations=k + 1,
        converged=False,
        residual_history=np.asarray(history),
        message=failure,
    )


def check_truncation_interior(report: QVISolveReport, r: float) -> bool:
    """True when every agent's plan lies strictly inside its radius-r ball,
    the ball `solve_qvi_truncated` cuts each agent's set with."""
    return max(norm(b) for b in report.agent_allocations()) < r - 1e-9


def default_radius_schedule(prob: QVIProblem) -> list:
    """`RADIUS_COUNT` doubling radii from 1 + sum of finite caps (caps bound
    the feasible set), or, with no finite cap, from 1 + 4 times the largest
    warm-start norm, which follows the economy's scale."""
    finite = [c for c in prob.caps or () if np.isfinite(c)]
    if finite:
        base = 1.0 + float(sum(finite))
    else:
        base = 1.0 + 4.0 * max(norm(w) for w in prob.warm_starts)
    return [base * 2.0**k for k in range(RADIUS_COUNT)]


def _untruncated_inner_check(price, blocks, prob, tol):
    """Certify each agent's block by its natural-map residual on the
    untruncated set K_i(price); the worst agent witnesses a failure.

    Strictly inside the ball the residual on K_i is the truncated one
    unless P_K(x - F(x)) leaves the ball, which it does only where x is
    not optimal on K_i.
    """
    res = _agent_residuals(blocks, prob, prob.constraint_map(price))
    worst = int(np.argmax(res))
    ok = bool(res[worst] <= tol)
    return CertReport(
        verdict=ok,
        residuals={f"untruncated_residual[{i}]": float(r) for i, r in enumerate(res)},
        witness=None if ok else worst,
        tolerance=tol,
        name="untruncated-inner",
    )


def solve_qvi_truncated(
    prob: QVIProblem, radii: Optional[Sequence[float]] = None, params: QVIParams = None
) -> QVISolveReport:
    """Solve with ball-truncated constraint sets over an increasing radius schedule.

    The first radius whose solution passes the strict interiority check is
    accepted once every agent also certifies at `inner_tol` on its
    untruncated set (`_untruncated_inner_check`).  An exhausted
    schedule yields a converged=False report advising a larger radius,
    followed by the last radius's own failure message if it had one.
    A start price off the problem's grid raises as in `solve_qvi`.
    """
    params = params or QVIParams()
    if radii is None:
        radii = default_radius_schedule(prob)
    radii = require_radius_schedule("radii", radii)

    last = None
    for r in radii:
        # each agent's set cut by its own ball; used only within this radius
        def trunc_map(p):
            return [Intersection((*s.parts, Ball(r))) for s in prob.constraint_map(p)]

        # scaled endowments stay feasible for every price (budget gap scales
        # down, caps and ball shrink with t), so they serve as warm starts
        # even when the ball excludes the endowment itself; the problem
        # checks them against the truncated sets on construction
        warm = [w if norm(w) < r else (0.99 * r / norm(w)) * w for w in prob.warm_starts]
        # the exact demand map knows no ball, so the truncated inner VIs run
        # on the iterative solver
        sub = replace(prob, constraint_map=trunc_map, warm_starts=warm, demand=None)
        report = solve_qvi(sub, params)
        last = report
        if report.converged and check_truncation_interior(report, r):
            check = _untruncated_inner_check(
                report.price, report.agent_allocations(), prob, params.inner_tol
            )
            if check.verdict:
                report.truncation_radius_used = r
                report.untruncated_check = check
                return report
            report.message = f"interior solution not optimal on agent {check.witness}'s full set"

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
