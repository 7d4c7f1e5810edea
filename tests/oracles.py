"""Independent oracles used to freeze expected values.

Nothing in here may call the solver paths it checks: projections are
verified against dense-grid minimization, VI solves against a long-run
projected-gradient fixed point, and the two-agent quadratic equilibrium
against closed-form KKT demands plus a grid-and-bisection price search,
the batched certificate against the per-sample loop it replaced, the
budget-cone kernel against the compacting loop it replaced, and the
LogShift demand against the search start it replaced.
"""

from __future__ import annotations

from itertools import product as iproduct

import numpy as np

from qvex import (
    agent_operator,
    full_budget_set,
    inner_product,
    membership_residual,
    norm,
    project,
    utility_value,
    vi_residual,
)
from qvex.economy import _logshift_plan
from qvex.errors import NonConvergence
from qvex.sets import _cap_budgets, _multiplier_search


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


def projected_gradient_vi(op_values, project, x0: np.ndarray, step=1e-3, iters=2_000_000, tol=1e-13):
    """Fixed point of x -> P(x - step * F(x)) by plain iteration (the VI oracle)."""
    x = project(np.asarray(x0, dtype=float))
    for _ in range(iters):
        x_new = project(x - step * op_values(x))
        if np.linalg.norm(x_new - x) <= tol:
            return x_new
        x = x_new
    return x


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
    which starts the same search from the breakpoint root instead; the two
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
