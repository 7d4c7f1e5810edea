"""Independent oracles used to freeze expected values.

Nothing in here may call the solver paths it checks.  The file holds:
- a dense-grid minimizer, the reference for every projection;
- Dykstra's alternating projections onto any intersection, the reference
  for the exact intersection kernels;
- a long-run projected-gradient fixed point, the reference for VI solves;
- a sampled Minty check, which certifies a VI candidate from the other
  direction than the natural-map residual;
- a component integral, the reference for cap and clearing sums;
- closed-form KKT demands plus a grid-and-bisection price search, the
  two-agent quadratic equilibrium;
- the per-sample loop the batched certificate replaced;
- the compacting loop the in-place budget-cone kernel replaced;
- the search start the LogShift demand replaced;
- the breakpoint sort the LogShift budget root replaced;
- feasible sampling on grid functions, and the pseudomonotonicity and
  coercivity probes written on it, which the array probes replaced;
- a single-loop extragradient on the stacked (price, allocation) pair,
  the cross-solver reference for `qvex.solve_qvi`.
"""

from __future__ import annotations

import logging
from functools import partial
from itertools import product as iproduct

import numpy as np

from qvex import (
    GridFunction,
    PointwiseSimplex,
    PriceCurve,
    QVIParams,
    agent_operator,
    full_budget_set,
    inner_product,
    membership_residual,
    norm,
    project,
    stack_components,
    utility_value,
    vi_residual,
)
from qvex.economy import _logshift_plan
from qvex.errors import NonConvergence, SamplingFailure, require_integer
from qvex.grids import _l2
from qvex.qvi import QVISolveReport, _agent_residuals, _outer_residual
from qvex.reports import CertReport
from qvex.sets import (
    _cap_budgets,
    _multiplier_search,
    membership_residual_values,
    project_values,
    sample_feasible_blocks,
)
from qvex.vi import adaptive_step, estimate_lipschitz

logger = logging.getLogger(__name__)


def sample_feasible(s, center, scale, rng, count):
    """`count` feasible points around the grid function `center`, from
    `qvex.sets.sample_feasible_blocks`, as grid functions: price curves on
    the simplex, as `project` returns them."""
    wrap = partial(PriceCurve, center.grid) if isinstance(s, PointwiseSimplex) else center.with_values
    blocks = sample_feasible_blocks(s, center.values, center.grid, scale, rng, count)
    return [wrap(y) for block in blocks for y in block]


def brute_force_project(v: np.ndarray, feasible, lows, highs, coarse=2e-3, fine=1e-5):
    """Two-stage dense-grid minimizer of ||z - v|| over {z : feasible(z)}.

    Works in 1 or 2 dimensions; `feasible` takes an (N, dim) array of
    candidates and returns a boolean mask.
    """
    v = np.asarray(v, dtype=float)
    lows = np.asarray(lows, dtype=float)
    highs = np.asarray(highs, dtype=float)

    def search(lo, hi, step):
        axes = [np.arange(lo[d], hi[d] + step, step) for d in range(len(lo))]
        if len(axes) == 1:
            cand = axes[0][:, None]
        else:
            g0, g1 = np.meshgrid(axes[0], axes[1], indexing="ij")
            cand = np.column_stack([g0.ravel(), g1.ravel()])
        mask = feasible(cand)
        cand = cand[mask]
        if cand.size == 0:
            raise ValueError("no feasible grid point; widen the search box")
        d2 = np.sum((cand - v[None, :]) ** 2, axis=1)
        return cand[np.argmin(d2)]

    z = search(lows, highs, coarse)
    pad = 3 * coarse
    z = search(np.maximum(lows, z - pad), np.minimum(highs, z + pad), fine)
    return z


def dykstra_values(v, parts, grid, tol, max_iter):
    """Dykstra's alternating projections onto the intersection of `parts`,
    with per-part correction terms (Boyle & Dykstra 1986).

    Plain alternation converges to a point of the intersection but not to
    the metric projection; the corrections restore it for convex parts.
    A sweep can leave the iterate in place while the corrections still
    move, so the stop test asks both to have settled (Birgin & Raydan 2005).
    Each part is projected on its own, so any parts will do; `max_iter`
    sweeps without settling raise `NonConvergence` with the last iterate.
    """
    x = np.array(v, dtype=float)
    corrections = [np.zeros_like(x) for _ in parts]
    scale = np.sqrt(grid.dt)
    for _ in range(max_iter):
        x_prev = x
        change = 0.0
        for i, part in enumerate(parts):
            y = project_values(x + corrections[i], part, grid)
            correction = x + corrections[i] - y
            change = max(change, np.linalg.norm(correction - corrections[i]))
            corrections[i] = correction
            x = y
        change = scale * max(change, np.linalg.norm(x - x_prev))
        if change <= tol:
            resid = max(membership_residual_values(x, part, grid) for part in parts)
            if resid <= max(tol, 1e-12):
                return x
    resids = {repr(p): membership_residual_values(x, p, grid) for p in parts}
    raise NonConvergence(
        f"Dykstra projection did not reach tol={tol} in {max_iter} iterations",
        last_iterate=x,
        residuals=resids,
    )


def project_intersection(x, parts, tol=1e-10, max_iter=10000):
    """`dykstra_values` on a grid function: its projection onto the
    intersection of `parts`."""
    return x.with_values(dykstra_values(x.values, tuple(parts), x.grid, tol, max_iter))


def projected_gradient_vi(op_values, project, x0: np.ndarray, step=1e-3, iters=2_000_000, tol=1e-13):
    """Fixed point of x -> P(x - step * F(x)) by plain iteration (the VI oracle)."""
    x = project(np.asarray(x0, dtype=float))
    for _ in range(iters):
        x_new = project(x - step * op_values(x))
        if np.linalg.norm(x_new - x) <= tol:
            return x_new
        x = x_new
    return x


def minty_certificate(x, op, C, samples=64, seed=0, slack=1e-9):
    """Sampled Minty check: <<F(y), y - x>> >= 0 over random feasible y.

    For continuous pseudomonotone operators the Minty and Stampacchia
    solution sets coincide, so this certifies VI candidates from the other
    direction than the natural-map residual.  `slack` must be a finite
    number >= 0: an infinite slack would pass every point.
    """
    require_integer("samples", samples, 1)
    require_integer("seed", seed, 0)
    if isinstance(slack, bool) or not 0 <= slack < np.inf:
        raise ValueError(f"slack: must be a finite number >= 0, got {slack!r}")
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


def integrate_component(h, j):
    """Time integral of component `j` of the grid function `h`."""
    if not 0 <= j < h.components:
        raise ValueError(f"component index {j} out of range [0, {h.components})")
    return float(h.grid.dt * h.values[:, j].sum())


def quadratic_kkt_demand(bliss, qweights, price, endow, caps, dt):
    """Closed-form single-cell demand of a quadratic agent by active-set enumeration.

    Maximize <b, x> - 0.5 <x, q x> subject to x >= 0, x_j <= caps_j / dt and
    dt * <p, x - e> <= 0.  Every assignment of {free, at zero, at cap} per
    good combined with budget active/inactive is solved in closed form and
    screened by the KKT sign conditions; strict concavity makes the winner
    the unique optimum.
    """
    b = np.asarray(bliss, dtype=float)
    q = np.asarray(qweights, dtype=float)
    p = np.asarray(price, dtype=float)
    e = np.asarray(endow, dtype=float)
    ub = np.asarray(caps, dtype=float) / dt
    m = b.size
    wealth = float(p @ e)
    tol = 1e-11

    for statuses in iproduct((0, 1, 2), repeat=m):  # 0 free, 1 at zero, 2 at cap
        for budget_active in (False, True):
            x = np.zeros(m)
            free = [j for j in range(m) if statuses[j] == 0]
            for j in range(m):
                if statuses[j] == 2:
                    x[j] = ub[j]
            if budget_active:
                denom = sum(p[j] ** 2 / q[j] for j in free)
                fixed_cost = sum(p[j] * x[j] for j in range(m) if statuses[j] == 2)
                numer = sum(p[j] * b[j] / q[j] for j in free) + fixed_cost - wealth
                if denom <= 1e-300:
                    if abs(numer) > tol:
                        continue
                    lam = 0.0
                else:
                    lam = numer / denom
                if lam < -tol:
                    continue
                lam = max(lam, 0.0)
            else:
                lam = 0.0
            for j in free:
                x[j] = (b[j] - lam * p[j]) / q[j]
            # primal feasibility
            if any(x[j] < -tol or x[j] > ub[j] + tol for j in range(m)):
                continue
            if not budget_active and p @ x - wealth > tol:
                continue
            # dual feasibility: multipliers of active bounds must be nonnegative
            grad = b - q * x - lam * p
            ok = True
            for j in range(m):
                if statuses[j] == 1 and grad[j] > tol:
                    ok = False  # at zero requires gradient pushing down
                if statuses[j] == 2 and grad[j] < -tol:
                    ok = False  # at cap requires gradient pushing up
                if statuses[j] == 0 and abs(grad[j]) > 1e-8:
                    ok = False
            if ok:
                return np.clip(x, 0.0, ub)
    raise RuntimeError("no KKT-consistent active set found")


def cd_quad_oracle(bliss_list, qweights_list, endow_list, caps, dt):
    """Equilibrium price of the two-good quadratic economy.

    Dense grid over the price simplex at 1e-3 brackets the sign change of
    the tangential excess demand, then bisection refines it.
    """

    def tangential_excess(theta):
        p = np.array([theta, 1.0 - theta])
        z = -sum(np.asarray(e) for e in endow_list)
        for b, q, e in zip(bliss_list, qweights_list, endow_list):
            z = z + quadratic_kkt_demand(b, q, p, e, caps, dt)
        return z[0] - z[1]

    thetas = np.arange(1e-3, 1.0, 1e-3)
    vals = np.array([tangential_excess(t) for t in thetas])
    # excess demand for good 1 falls as its price rises: look for + -> - crossing
    crossings = np.nonzero(np.sign(vals[:-1]) != np.sign(vals[1:]))[0]
    if len(crossings) == 0:
        raise RuntimeError("no sign change of tangential excess demand on the grid")
    lo, hi = thetas[crossings[0]], thetas[crossings[0] + 1]
    flo = tangential_excess(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = tangential_excess(mid)
        if fm == 0.0 or hi - lo < 1e-14:
            lo = hi = mid
            break
        if np.sign(fm) == np.sign(flo):
            lo, flo = mid, fm
        else:
            hi = mid
    theta = 0.5 * (lo + hi)
    price = np.array([theta, 1.0 - theta])
    demands = [
        quadratic_kkt_demand(b, q, price, e, caps, dt)
        for b, q, e in zip(bliss_list, qweights_list, endow_list)
    ]
    return price, demands


def per_sample_best_response(eco, p, x_i, i, samples=200, seed=0):
    """Best-response residual by one feasible sample at a time.

    The reference for `qvex.verify.best_response_residual`: each sample is
    drawn alone, projected by the generic budget-and-caps kernel through
    `qvex.project`, and compared through grid functions.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    agent = eco.agents[i]
    M = full_budget_set(agent, p)
    feas = membership_residual(x_i, M)
    if feas > 1e-9:
        raise ValueError(f"candidate plan of agent {i} infeasible (residual {feas:.2e})")
    op = agent_operator(agent)
    nat = vi_residual(x_i, op, M, 1.0)
    rng = np.random.default_rng(seed)
    scale = 1.0 + norm(agent.endowment) + norm(x_i)
    u_x = utility_value(agent, x_i)
    minty_viol = 0.0
    utility_gain = 0.0
    for _ in range(samples):
        noise = rng.normal(0.0, scale, size=x_i.values.shape)
        y = project(x_i.with_values(x_i.values + noise), M)
        minty_viol = max(minty_viol, -inner_product(op(y), y - x_i) - 1e-9)
        utility_gain = max(utility_gain, utility_value(agent, y) - u_x - 1e-8)
    return float(max(nat, minty_viol, utility_gain, 0.0))


def compacting_budget_cone(V, p, e, dt, max_newton=100):
    """`qvex.sets._project_budget_cone` as it was first written: after each
    Newton step the settled slices are written back into the block and the
    live ones copied out, so each step works on the live slices alone.

    The reference the in-place kernel must match bit for bit, including the
    `NonConvergence` it raises after `max_newton` steps.
    """

    def spend(Z):
        return dt * np.einsum("kcm,cm->k", Z, p)

    Z = np.maximum(V, 0.0)
    wealth = dt * float(np.vdot(p, e))
    st = spend(Z)
    todo = np.nonzero(st > wealth)[0]
    if todo.size == 0:
        return Z
    if wealth <= 1e-300:
        Z[todo] = np.where(p > 0, 0.0, Z[todo])
        return Z
    margin = 1e-14 * wealth
    Vt, Zt, st = V[todo], Z[todo], st[todo]
    lam = np.zeros(todo.size)
    for _ in range(max_newton):
        slope = dt * np.einsum("kcm,cm->k", np.sign(Zt), p * p)
        step = (st - wealth + margin) / np.maximum(slope, 1e-300)
        lam = np.maximum(lam + step, np.nextafter(lam, np.inf))
        Zt = np.maximum(Vt - lam[:, None, None] * p, 0.0)
        st = spend(Zt)
        done = st <= wealth - 0.5 * margin
        Z[todo[done]] = Zt[done]
        if done.all():
            return Z
        left = ~done
        todo, lam, Vt, Zt, st = todo[left], lam[left], Vt[left], Zt[left], st[left]
    raise NonConvergence(
        f"budget-cone Newton iteration did not converge in {max_newton} steps",
        last_iterate=Zt,
        residuals={"budget_gap": float(np.max(st)) - wealth, "unsettled": int(todo.size)},
    )


def newton_started_logshift_demand(spec, p, e, caps, dt):
    """`qvex.LogShift.demand` as it was first written: the budget multiplier
    search starts from one Newton step on the spend, with the cap
    multipliers held at the plan of the lower bound.

    It shares `_logshift_plan` and `_multiplier_search` with the kernel,
    which starts the same search from the exact uncapped root instead; the two
    must agree to rounding.
    """
    a = np.asarray(spec.weights)
    budgets = _cap_budgets(caps, dt)
    uncapped = np.ones(a.size, bool) if budgets is None else ~np.isfinite(budgets)
    if np.any((p == 0) & uncapped):
        raise NonConvergence("LogShift demand is unbounded: an uncapped good is free in some cell")
    wealth = dt * float(np.vdot(p, e))
    if wealth <= 1e-300:
        return _logshift_plan(np.where(p > 0, np.inf, 0.0), a, spec.shift, budgets)
    lo = 0.0
    if uncapped.any():
        pu = p[:, uncapped]
        lo = dt * pu.shape[0] * a[uncapped].sum() / (wealth + dt * spec.shift * pu.sum())
    x = _logshift_plan(lo * p, a, spec.shift, budgets)
    spend = dt * float(np.vdot(p, x))
    if spend <= wealth:
        return x
    slope = dt * float(np.vdot(p * p, np.where(x > 0, (x + spec.shift) ** 2, 0.0) / a))
    lam = lo + (spend - wealth) / max(slope, 1e-300)
    return _multiplier_search(
        lambda lam: _logshift_plan(lam * p, a, spec.shift, budgets),
        lambda x: dt * float(np.vdot(p, x)),
        wealth, lo, lam, x,
    )


def breakpoint_logshift_root(p, a, shift, target):
    """`qvex.economy._logshift_root` as it was first written: the lam at
    which x_kj = max(0, a_j / (lam p_kj) - shift), over the entries with
    p_kj > 0, spends sum_kj p_kj x_kj = `target`, from sorted breakpoints.

    With mu = 1 / lam each term p x = max(0, a_j mu - shift p_kj) is linear
    in mu past its breakpoint shift p_kj / a_j.  Prefix sums of a and p in
    breakpoint order give the spend at every breakpoint; the last one
    spending below the target fixes the active prefix, on which
    mu = (target + shift sum p) / sum a (Kiwiel 2008).  The reference the
    variable-fixing root must agree with to rounding.
    """
    live = p > 0
    A = np.broadcast_to(a, p.shape)[live]
    P = p[live]
    breaks = P / A
    order = np.argsort(breaks)
    breaks = breaks[order]
    cum_a, cum_p = np.cumsum(A[order]), np.cumsum(P[order])
    # spend at each breakpoint; the first is zero, whatever the rounding
    below = shift * (breaks * cum_a - cum_p) < target
    below[0] = True
    r = below.size - 1 - np.argmax(below[::-1])
    return cum_a[r] / (target + shift * cum_p[r])


def _stacked_norm(blocks):
    return float(np.sqrt(sum(norm(b) ** 2 for b in blocks)))


def grid_function_coercivity_probe(prob, d, r_d, samples=64, seed=0):
    """`qvex.coercivity_probe` as it was written on grid functions: every
    sample is drawn, wrapped and measured as a `GridFunction`.  The
    reference the array probe must match bit for bit."""
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
            if any(membership_residual(y, s) > 1e-9 for y, s in zip(y_blocks, sets)):
                continue
            val = sum(inner_product(f, b - y) for f, b, y in zip(fx, blocks, y_blocks))
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


def grid_function_pseudomonotonicity_probe(op, C, center, pairs=200, seed=0, scale=1.0):
    """`qvex.pseudomonotonicity_probe` as it was written on grid functions:
    the first points come from one `sample_feasible` call, each second point
    from another, and every pairing goes through `op(x)` and
    `inner_product`.  The reference the array probe must match bit for bit."""
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


def solve_qvi_product(prob, params=None):
    """Single-loop extragradient on the stacked (price, allocation) pair, a
    second solver to cross-check `qvex.solve_qvi` against.

    The moving constraint set is frozen at the current price within each
    step.  The step starts at 0.7 / max(sqrt(n), L) and then only shrinks,
    by `qvex.vi.adaptive_step` on the stacked operator (h, F_1, ..., F_n).
    Each step moves the price once, so the run counts against `max_outer`.
    Every 10th iteration checks both certificates of `solve_qvi` and logs
    one DEBUG record: k, outer residual, worst inner residual and step.
    Contraction is not guaranteed for this path; non-convergence is
    reported, never masked.
    """
    params = params or QVIParams()
    grid = prob.grid

    d = params.start_price or PriceCurve.uniform(grid, prob.goods)
    sets = prob.constraint_map(d)
    xs = [project(w, s) for w, s in zip(prob.warm_starts, sets)]

    l_blocks = max(
        estimate_lipschitz(op, s, w)
        for op, s, w in zip(prob.agent_operators, sets, prob.warm_starts)
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
        fs = [op.values(x_i.values) for op, x_i in zip(prob.agent_operators, xs)]

        if k % check_every == 0:
            outer_res = _outer_residual(d.values, h.values, prob)
            inner_res = _agent_residuals(xs, prob, sets)
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
                    outer_residual=outer_res,
                    inner_residuals=inner_res,
                    iterations=k + 1,
                    converged=True,
                    residual_history=np.asarray(history),
                    message="product-space path",
                )

        # extragradient step with the constraint set frozen at the current price
        ys = [
            project_values(x_i.values - gamma * f, s, grid) for x_i, f, s in zip(xs, fs, sets)
        ]
        y = np.hstack(ys)
        hy = prob.outer_map(GridFunction(grid, y))
        fys = [op.values(y_i) for op, y_i in zip(prob.agent_operators, ys)]
        d = PriceCurve(grid, project_values(d.values - gamma * hy.values, PointwiseSimplex(), grid))
        xs = [
            x_i.with_values(project_values(x_i.values - gamma * fy, s, grid))
            for x_i, fy, s in zip(xs, fys, sets)
        ]
        # the stacked operator is G = (h, F_1, ..., F_n), so h's change counts too
        dF = np.concatenate([f - fy for f, fy in zip(fs, fys)], axis=1)
        dG = np.hypot(_l2(h.values - hy.values), _l2(dF))
        gamma = adaptive_step(gamma, _l2(x.values - y), dG)
        sets = prob.constraint_map(d)

    d, x, outer_res, inner_res = best
    return QVISolveReport(
        price=d,
        allocation=x,
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
