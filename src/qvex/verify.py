"""Independent certification of equilibrium candidates.

Nothing here trusts solver output: every check re-evaluates the defining
inequalities of a dynamic competitive equilibrium (per-agent optimality on
the full budget set, market clearing in time integral, budget feasibility)
from the raw pair (p, x).  Walras' law is reported but never gated, since
satiated quadratic agents may legitimately leave wealth unspent.

The sampled half of each best-response check works on arrays: the
samples are drawn as (k, cells, m) blocks of a fixed element count, which
bounds the memory a check takes, every block is projected onto the
uncapped budget set at once by variable fixing, and the Minty values and
utility comparisons are reductions over the block.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .economy import Agent, Economy, agent_operator, utility_value
from .errors import SamplingFailure
from .grids import GridFunction, PriceCurve, inner_product, norm
from .qvi import QVIProblem
from .reports import CertReport
from .sets import (
    BudgetHalfspace,
    CapBox,
    Intersection,
    PointwiseSimplex,
    SetDescriptor,
    membership_residual,
    sample_feasible,
    sample_feasible_blocks,
)
from .vi import OperatorHandle, vi_residual


def full_budget_set(agent: Agent, p: PriceCurve) -> Intersection:
    """The uncapped budget set: nonnegative plans affordable at prices p."""
    cone = CapBox(tuple(np.inf for _ in range(agent.endowment.components)))
    return Intersection((BudgetHalfspace(p, agent.endowment), cone))


def market_clearing_residual(eco: Economy, x: Sequence[GridFunction]) -> np.ndarray:
    """Per-good integral of aggregate net demand; <= 0 certifies clearing."""
    total = sum(x_i.values - a.endowment.values for x_i, a in zip(x, eco.agents))
    return eco.grid.dt * total.sum(axis=0)


def budget_residuals(eco: Economy, p: PriceCurve, x: Sequence[GridFunction]) -> np.ndarray:
    """Signed budget gaps <<p, x_i - e_i>> per agent; <= 0 certifies feasibility."""
    return np.array([inner_product(p, x_i - a.endowment) for x_i, a in zip(x, eco.agents)])


def walras_residual(eco: Economy, p: PriceCurve, x: Sequence[GridFunction]) -> float:
    """Aggregate value of net trades; zero when every budget binds."""
    return float(budget_residuals(eco, p, x).sum())


def best_response_residual(
    eco: Economy,
    p: PriceCurve,
    x_i: GridFunction,
    i: int,
    samples: int = 200,
    seed: int = 0,
) -> float:
    """How far agent i's plan is from optimal on the full budget set.

    Combines the natural-map residual on the uncapped budget set with a
    sampled Minty check and direct utility comparisons against sampled
    feasible plans; all three vanish at an optimum, and the max is returned.
    The samples are Gaussian noise around the plan, drawn in blocks of a
    fixed element count (`sets._SAMPLE_CHUNK`, which bounds the memory a
    block takes) and projected a block at a time by variable fixing
    (`sets._project_budget_cone`); the Minty values and utilities of a
    block are array reductions, one per sample.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    agent = eco.agents[i]
    M = full_budget_set(agent, p)
    feas = membership_residual(x_i, M)
    if feas > 1e-9:
        raise ValueError(f"candidate plan of agent {i} infeasible (residual {feas:.2e})")

    nat = vi_residual(x_i, agent_operator(agent), M, 1.0)

    rng = np.random.default_rng(seed)
    scale = 1.0 + norm(agent.endowment) + norm(x_i)
    u, x, dt = agent.utility, x_i.values, x_i.grid.dt
    u_x = utility_value(agent, x_i)
    minty_viol = 0.0
    utility_gain = 0.0
    for ys in sample_feasible_blocks(M, x, x_i.grid, scale, rng, samples):
        u.check_domain(ys)
        # -<<F(y), y - x>> per sample, with F = -grad u the agent's operator
        minty = dt * np.sum((u.cell_gradients(ys) * (ys - x)).reshape(len(ys), -1), axis=1)
        gains = dt * np.sum(u.cell_values(ys), axis=1) - u_x
        minty_viol = max(minty_viol, float(minty.max()) - 1e-9)
        utility_gain = max(utility_gain, float(gains.max()) - 1e-8)
    return float(max(nat, minty_viol, utility_gain, 0.0))


def certify_equilibrium(
    eco: Economy,
    p: PriceCurve,
    x: Sequence[GridFunction],
    tol: float = 1e-6,
    samples: int = 200,
    seed: int = 0,
) -> CertReport:
    """Full equilibrium certification of a candidate pair.

    Gates: price lies in the per-cell simplex, every budget gap <= tol,
    every per-good clearing integral <= tol, every best-response residual
    <= tol.  The Walras aggregate is reported as metadata only.

    Certification semantics: the optimality gates combine exact residual
    evaluations with sampled checks, so a pass certifies the equilibrium
    inequalities at the stated tolerance on the sampled directions; no
    finite procedure certifies the continuum claim exactly.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    residuals = {}
    witness = None

    residuals["price_simplex"] = membership_residual(p, PointwiseSimplex())

    budgets = budget_residuals(eco, p, x)
    for i, b in enumerate(budgets):
        residuals[f"budget[{i}]"] = float(b)
    clearing = market_clearing_residual(eco, x)
    for j, c in enumerate(clearing):
        residuals[f"clearing[{j}]"] = float(c)
    residuals["walras"] = float(budgets.sum())

    ok = residuals["price_simplex"] <= tol
    ok = ok and bool(np.all(budgets <= tol)) and bool(np.all(clearing <= tol))

    for i in range(eco.n_agents):
        if budgets[i] > tol:
            residuals[f"best_response[{i}]"] = np.inf
            ok = False
            continue
        try:
            br = best_response_residual(eco, p, x[i], i, samples=samples, seed=seed + i)
        except ValueError:
            br = np.inf
        residuals[f"best_response[{i}]"] = br
        if not br <= tol:
            ok = False
            witness = witness or ("best_response", i)

    return CertReport(
        verdict=bool(ok),
        residuals=residuals,
        witness=witness,
        tolerance=tol,
        samples_used=samples,
        seed=seed,
        name="equilibrium",
    )


def coercivity_probe(
    prob: QVIProblem,
    d: PriceCurve,
    r_d: float,
    samples: int = 64,
    seed: int = 0,
) -> CertReport:
    """Sampled coercivity check of the stacked operator on K(d).

    For each sampled feasible stacked x with ||x|| > r_d, look for a
    feasible y of smaller norm with <<F(x), x - y>> >= 0.  A pass with no
    sample beyond the radius is reported as vacuous.
    """
    if r_d <= 0:
        raise ValueError("coercivity radius must be positive")
    rng = np.random.default_rng(seed)
    sets = prob.constraint_map(d)
    per_agent_scale = max(1.0, r_d)

    def sample_stacked(n):
        out = []
        for _ in range(n):
            try:
                blocks = [
                    sample_feasible(s, w, per_agent_scale, rng, 1)[0]
                    for s, w in zip(sets, prob.warm_starts)
                ]
            except Exception as exc:
                raise SamplingFailure(f"feasible sampling failed: {exc}") from exc
            out.append(blocks)
        return out

    candidates = sample_stacked(samples)
    outside = [b for b in candidates if _stacked_norm(b) > r_d]
    if not outside:
        return CertReport(
            verdict=True,
            residuals={"max_sampled_norm": max(_stacked_norm(b) for b in candidates)},
            tolerance=0.0,
            samples_used=samples,
            seed=seed,
            vacuous=True,
            name="coercivity",
        )

    pool = sample_stacked(4 * samples)
    failures = []
    for blocks in outside:
        nx = _stacked_norm(blocks)
        fx = [op(b) for op, b in zip(prob.agent_operators, blocks)]
        found = False
        scaled = [[t * b for b in blocks] for t in (0.0, 0.1, 0.5, 0.9)]
        for y_blocks in scaled + pool:
            if _stacked_norm(y_blocks) >= nx:
                continue
            if any(
                membership_residual(y, s) > 1e-9 for y, s in zip(y_blocks, sets)
            ):
                continue
            val = sum(
                inner_product(f, b - y) for f, b, y in zip(fx, blocks, y_blocks)
            )
            if val >= -1e-12:
                found = True
                break
        if not found:
            failures.append(blocks)
    ok = not failures
    return CertReport(
        verdict=ok,
        residuals={"samples_outside_radius": float(len(outside))},
        witness=None if ok else failures[0],
        tolerance=1e-12,
        samples_used=samples,
        seed=seed,
        name="coercivity",
    )


def _stacked_norm(blocks: Sequence[GridFunction]) -> float:
    return float(np.sqrt(sum(norm(b) ** 2 for b in blocks)))


def pseudomonotonicity_probe(
    op: OperatorHandle,
    C: SetDescriptor,
    center: GridFunction,
    pairs: int = 200,
    seed: int = 0,
    scale: float = 1.0,
) -> CertReport:
    """Sampled pseudomonotonicity check on feasible pairs.

    Whenever <<F(x), y - x>> >= 0 the definition demands <<F(y), y - x>> >= 0;
    a violating pair is returned as witness.  The second point of each pair
    is drawn at a mixed separation from the first: for gradient operators of
    concave utilities, far-apart pairs almost never satisfy the premise
    (curvature dominates), so close pairs are needed for real coverage.
    """
    if pairs < 1:
        raise ValueError("need at least one pair")
    rng = np.random.default_rng(seed)
    xs = sample_feasible(C, center, scale, rng, pairs)
    worst, witness = np.inf, None
    triggered = 0
    for x in xs:
        sep = scale * 10.0 ** rng.uniform(-3, 0)
        y = sample_feasible(C, x, sep, rng, 1)[0]
        if inner_product(op(x), y - x) >= 0.0:
            triggered += 1
            val = inner_product(op(y), y - x)
            if val < worst:
                worst, witness = val, (x, y)
    ok = worst >= -1e-9
    return CertReport(
        verdict=ok,
        residuals={"min_conclusion_value": worst if triggered else np.inf,
                   "pairs_triggered": float(triggered)},
        witness=None if ok else witness,
        tolerance=1e-9,
        samples_used=pairs,
        seed=seed,
        vacuous=triggered == 0,
        name="pseudomonotonicity",
    )
