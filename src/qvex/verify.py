"""Independent certification of equilibrium candidates.

Nothing here trusts solver output: every check re-evaluates the defining
inequalities of a dynamic competitive equilibrium (per-agent optimality on
the full budget set, market clearing in time integral, budget feasibility)
from the raw pair (p, x).  Walras' law is reported but never gated, since
satiated quadratic agents may legitimately leave wealth unspent.

The sampled half of each best-response check works on arrays: the
samples are drawn as (k, cells, m) blocks of a fixed element count, which
bounds the memory a check takes, every block is projected onto the
uncapped budget set at once by variable fixing, whose settled slices stay
in the block with their multipliers frozen, and the utility family reduces
each block to per-sample utility and Minty sums in one pass
(`UtilitySpec.block_sums`).  A check holds about three blocks at a time:
the one being drawn, its projection and the projection's temporaries.
Agents whose samples fill at least three quarters of a block are checked
concurrently on a standard thread pool, one thread per CPU the process
may use; smaller checks stay serial on the caller's thread, their GIL
hand-offs costing more than the threads win back.  Each agent draws from
its own generator and the pool returns the results in agent order, so the
report has the bits of the serial loop.  The probes draw from the same
sampler and evaluate operators on the value arrays; only their witnesses
are wrapped.
"""

from __future__ import annotations

import os
from typing import Sequence

import numpy as np

from . import sets as _sets
from .economy import Agent, Economy, agent_operator, utility_value
from .errors import NonConvergence, SamplingFailure, require_integer, require_positive_real
from .grids import GridFunction, PriceCurve, _l2, inner_product, norm
from .qvi import QVIProblem
from .reports import CertReport
from .sets import (
    BudgetHalfspace,
    CapBox,
    Intersection,
    PointwiseSimplex,
    SetDescriptor,
    membership_residual,
    membership_residual_values,
    sample_feasible_blocks,
)
from .vi import OperatorHandle, vi_residual


def full_budget_set(agent: Agent, p: PriceCurve) -> Intersection:
    """The uncapped budget set: nonnegative plans affordable at prices p."""
    cone = CapBox(tuple(np.inf for _ in range(agent.endowment.components)))
    return Intersection((BudgetHalfspace(p, agent.endowment), cone))


def _require_plans(eco: Economy, x: Sequence[GridFunction]) -> None:
    """ValueError, naming `x`, unless it holds one plan per agent."""
    if len(x) != eco.n_agents:
        raise ValueError(f"x: need one plan per agent ({eco.n_agents}), got {len(x)}")


def market_clearing_residual(eco: Economy, x: Sequence[GridFunction]) -> np.ndarray:
    """Per-good integral of aggregate net demand; <= 0 certifies clearing."""
    _require_plans(eco, x)
    total = sum(x_i.values - a.endowment.values for x_i, a in zip(x, eco.agents))
    return eco.grid.dt * total.sum(axis=0)


def budget_residuals(eco: Economy, p: PriceCurve, x: Sequence[GridFunction]) -> np.ndarray:
    """Signed budget gaps <<p, x_i - e_i>> per agent; <= 0 certifies feasibility."""
    _require_plans(eco, x)
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
    (`sets._project_budget_cone`); the utility family's `block_sums` gives
    the Minty values and utilities of a block, one per sample.  A block is
    released before the next one is drawn, so a check holds about three
    blocks at a time.
    """
    require_integer("samples", samples, 1)
    require_integer("seed", seed, 0)
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
        values, slopes = u.block_sums(ys, x)
        # -<<F(y), y - x>> per sample, with F = -grad u the agent's operator
        minty = dt * slopes
        gains = dt * values - u_x
        minty_viol = max(minty_viol, float(minty.max()) - 1e-9)
        utility_gain = max(utility_gain, float(gains.max()) - 1e-8)
        del ys  # the next block is drawn and projected without this one
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

    Certification semantics: the simplex, budget and clearing gates and the
    natural-map part of each best-response residual are exact evaluations
    on the step functions; the Minty and utility parts are checked only on
    the sampled plans.  A pass therefore certifies the exact gates at the
    stated tolerance and the optimality inequalities on the sampled
    directions, not optimality over the whole budget set.  An agent whose
    check cannot finish (infeasible plan, projection out of steps) gets inf.

    Raises ValueError unless `x` holds one plan per agent, `tol` is finite
    and positive, `samples` an integer >= 1 and `seed` an integer >= 0.
    """
    _require_plans(eco, x)
    require_positive_real("tol", tol)
    require_integer("samples", samples, 1)
    require_integer("seed", seed, 0)
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

    def check(i):
        try:
            return best_response_residual(eco, p, x[i], i, samples=samples, seed=seed + i)
        except (ValueError, NonConvergence):
            return np.inf

    checked = [i for i in range(eco.n_agents) if budgets[i] <= tol]
    # threads only where an agent's samples fill three quarters of a block:
    # on smaller blocks the hand-offs of the GIL outweigh the overlap (2-CPU
    # x86 VM: serial was faster at 6,400 to 38,400 values, threads at 51,200)
    concurrent = 4 * samples * eco.grid.cells * eco.goods >= 3 * _sets._SAMPLE_CHUNK
    workers = min(len(checked), _usable_cpus()) if concurrent else 1
    if workers > 1:
        # imported here, so that `import qvex` does not load the pool
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(workers) as pool:
            brs = dict(zip(checked, pool.map(check, checked)))
    else:
        brs = dict(zip(checked, map(check, checked)))
    for i in range(eco.n_agents):
        if i not in brs:
            residuals[f"best_response[{i}]"] = np.inf
            ok = False
            continue
        residuals[f"best_response[{i}]"] = brs[i]
        if not brs[i] <= tol:
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


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


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
    sample beyond the radius is reported as vacuous; a NaN radius would be.
    A stacked sample is one single-point draw per agent, kept as arrays.
    """
    require_positive_real("r_d", r_d)
    require_integer("samples", samples, 1)
    require_integer("seed", seed, 0)
    rng = np.random.default_rng(seed)
    sets = prob.constraint_map(d)
    grid, scale = prob.grid, max(1.0, r_d)

    def size(vs):
        # the stacked norm, each agent's part measured as `norm` measures it
        return float(np.sqrt(sum(float(np.sqrt(grid.dt) * _l2(v)) ** 2 for v in vs)))

    def draw(n):
        try:
            stacks = [[next(sample_feasible_blocks(s, w.values, grid, scale, rng, 1))[0]
                       for s, w in zip(sets, prob.warm_starts)] for _ in range(n)]
        except Exception as exc:
            raise SamplingFailure(f"feasible sampling failed: {exc}") from exc
        return [(vs, size(vs)) for vs in stacks]

    candidates = draw(samples)
    outside = [(vs, n) for vs, n in candidates if n > r_d]
    if not outside:
        return CertReport(
            verdict=True,
            residuals={"max_sampled_norm": max(n for _, n in candidates)},
            tolerance=0.0,
            samples_used=samples,
            seed=seed,
            vacuous=True,
            name="coercivity",
        )

    pool = draw(4 * samples)
    failures = []
    for xs, nx in outside:
        fx = [op.values(v) for op, v in zip(prob.agent_operators, xs)]
        scaled = [[v * t for v in xs] for t in (0.0, 0.1, 0.5, 0.9)]
        for ys, ny in [(vs, size(vs)) for vs in scaled] + pool:
            if ny >= nx or any(membership_residual_values(y, s, grid) > 1e-9
                               for y, s in zip(ys, sets)):
                continue
            # <<F(x), x - y>>, summed over the agents as `inner_product` pairs each
            if sum(grid.dt * np.sum(f * (x - y)) for f, x, y in zip(fx, xs, ys)) >= -1e-12:
                break
        else:
            failures.append(xs)
    ok = not failures
    return CertReport(
        verdict=ok,
        residuals={"samples_outside_radius": float(len(outside))},
        witness=None if ok else [_point(s, grid, v) for s, v in zip(sets, failures[0])],
        tolerance=1e-12,
        samples_used=samples,
        seed=seed,
        name="coercivity",
    )


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
    The scale must be finite and positive: at 0 every pair is x = y.
    The first points are one block draw, each second point a single one.
    """
    require_integer("pairs", pairs, 1)
    require_positive_real("scale", scale)
    require_integer("seed", seed, 0)
    rng = np.random.default_rng(seed)
    grid = center.grid
    xs = np.concatenate(list(sample_feasible_blocks(C, center.values, grid, scale, rng, pairs)))
    worst, witness = np.inf, None
    triggered = 0
    for x in xs:
        sep = scale * 10.0 ** rng.uniform(-3, 0)
        y = next(sample_feasible_blocks(C, x, grid, sep, rng, 1))[0]
        step = y - x
        # the pairings are `inner_product`'s: dt * sum(a * b)
        if grid.dt * np.sum(op.values(x) * step) >= 0.0:
            triggered += 1
            val = float(grid.dt * np.sum(op.values(y) * step))
            if val < worst:
                worst, witness = val, (x, y)
    ok = worst >= -1e-9
    return CertReport(
        verdict=ok,
        residuals={"min_conclusion_value": worst if triggered else np.inf,
                   "pairs_triggered": float(triggered)},
        witness=None if ok else tuple(_point(C, grid, v) for v in witness),
        tolerance=1e-9,
        samples_used=pairs,
        seed=seed,
        vacuous=triggered == 0,
        name="pseudomonotonicity",
    )


def _point(s: SetDescriptor, grid, v: np.ndarray) -> GridFunction:
    """A sampled point as a grid function: a price curve on the simplex,
    as `project` returns it."""
    return PriceCurve(grid, v) if isinstance(s, PointwiseSimplex) else GridFunction(grid, v)
