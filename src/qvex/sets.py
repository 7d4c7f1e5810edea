"""Convex constraint sets and their metric projections.

Set descriptors are small immutable records; `project` dispatches on the
descriptor kind.  All projections are metric projections in the L2 geometry
of the grid.  Because the grid is uniform, the dt weight cancels from every
cellwise projection, so the per-cell rules coincide with plain Euclidean
ones; only integral constraints (budget, caps, ball) see dt explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np

from .errors import DegenerateSet, NonConvergence
from .grids import GridFunction, PriceCurve, TimeGrid

#: stop test and sweep budget of Dykstra's alternation over `Intersection` parts
DYKSTRA_TOL = 1e-10
DYKSTRA_MAX_ITER = 10000
#: elements (samples x cells x goods) that `sample_feasible` and the
#: certificate draw and project as one block; bounds their temporaries
_SAMPLE_CHUNK = 2**14


class SetDescriptor:
    """Base marker for projectable convex sets."""


@dataclass(frozen=True)
class PointwiseSimplex(SetDescriptor):
    """Per-cell unit simplex: values >= 0 and each cell's components sum to 1.

    The time-regularity condition that yields compactness of the price set
    in the continuum model has no nontrivial analogue for step functions;
    membership here is the per-cell simplex constraint only.
    """


@dataclass(frozen=True)
class BudgetHalfspace(SetDescriptor):
    """{x : <<p, x - e>> <= 0} in the L2 pairing (budget feasibility)."""

    price: GridFunction
    endowment: GridFunction


@dataclass(frozen=True)
class CapBox(SetDescriptor):
    """Nonnegative functions with per-component integral caps.

    caps[j] = +inf drops the integral constraint for component j, leaving
    the plain nonnegative cone in that component.
    """

    caps: tuple

    def __post_init__(self):
        caps = tuple(float(c) for c in self.caps)
        if any(c <= 0 for c in caps):
            raise ValueError(f"caps must be strictly positive, got {caps}")
        object.__setattr__(self, "caps", caps)


@dataclass(frozen=True)
class Ball(SetDescriptor):
    """Closed L2 ball of given radius; `center` is a constant per-component shift."""

    radius: float
    center: tuple = ()

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError(f"ball radius must be positive, got {self.radius}")
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))


@dataclass(frozen=True)
class Intersection(SetDescriptor):
    """Intersection of the listed parts, projected by Dykstra's alternation."""

    parts: tuple

    def __post_init__(self):
        parts = tuple(self.parts)
        if not parts:
            raise ValueError("intersection needs at least one part")
        object.__setattr__(self, "parts", parts)


# --- array-level projection kernels (hot path; values shaped (cells, m)) ---


def _simplex_rows(v: np.ndarray) -> np.ndarray:
    """Project each row of v onto the unit simplex (sort-and-threshold)."""
    n = v.shape[1]
    u = np.sort(v, axis=1)[:, ::-1]
    css = np.cumsum(u, axis=1)
    ks = np.arange(1, n + 1)
    # largest k with u_k > (sum of top k - 1)/k; ties give the same projection
    cond = u * ks > css - 1.0
    rho = n - 1 - np.argmax(cond[:, ::-1], axis=1)
    theta = (css[np.arange(v.shape[0]), rho] - 1.0) / (rho + 1.0)
    out = np.maximum(v - theta[:, None], 0.0)
    # renormalize so the constraint holds exactly, not just to threshold error
    return out / out.sum(axis=1, keepdims=True)


def _cap_budgets(caps: Sequence[float], dt: float):
    """Per-component water-filling budgets cap/dt (+inf where uncapped), or
    None when no cap is finite."""
    caps_arr = np.asarray(caps, dtype=float)
    finite = np.isfinite(caps_arr)
    if not finite.any():
        return None
    return np.where(finite, caps_arr / dt, np.inf)


def _water_fill(v: np.ndarray, budgets) -> np.ndarray:
    """Project onto the capped cone: clamp to the cone, then water-fill the
    components whose integral cap binds.

    The water-filling threshold per component solves
    sum_k max(0, v_k - tau) = cap/dt, the KKT condition of the projection.
    `budgets` comes from `_cap_budgets`.
    """
    out = np.maximum(v, 0.0)
    if budgets is None:
        return out
    need = out.sum(axis=0) > budgets
    if not need.any():
        return out
    idx = np.nonzero(need)[0]
    V = v[:, idx]
    U = np.sort(V, axis=0)[::-1]
    css = np.cumsum(U, axis=0)
    ks = np.arange(1, V.shape[0] + 1)[:, None]
    taus = (css - budgets[idx][None, :]) / ks
    rho = V.shape[0] - 1 - np.argmax((U > taus)[::-1], axis=0)
    out[:, idx] = np.maximum(V - taus[rho, np.arange(idx.size)][None, :], 0.0)
    return out


def _halfspace_values(v: np.ndarray, p: np.ndarray, e: np.ndarray, dt: float) -> np.ndarray:
    gap = dt * np.sum(p * (v - e))
    if gap <= 0.0:
        return v
    pnorm2 = dt * np.sum(p * p)
    if pnorm2 <= 1e-300:
        raise DegenerateSet("cannot project onto a budget set with zero price curve")
    return v - (gap / pnorm2) * p


def _ball_values(v: np.ndarray, radius: float, center: tuple, dt: float) -> np.ndarray:
    c = np.asarray(center) if center else 0.0
    d = v - c
    r = np.sqrt(dt) * np.linalg.norm(d)
    if r <= radius:
        return v
    return c + d * (radius / r)


# evaluations the budget multiplier search may spend before it gives up
_MAX_SEARCH = 200


def _project_budget_capbox(v, p, e, caps, dt):
    """Exact projection onto {z in capbox : <<p, z - e>> <= 0}.

    The budget multiplier is the root of the nonincreasing piecewise-linear
    map g(lam) = <<p, P_capbox(v - lam p) - e>>; each evaluation is one
    capped-cone projection (`_water_fill`).  The first trial is g(0) over
    the slope g would have if no cap bound.  Until g changes sign, the next
    trial is the secant step through the last two points, never more than
    doubling lam.  Inside the bracket the search runs Illinois regula falsi:
    when the same end survives two steps in a row, its stored value is
    halved, so neither end stalls.  The search accepts a point that spends
    between 1 - 2e-15 and 1 times the wealth, or stops when the bracket is
    a few ulps wide and takes its upper end, so the result never
    overspends.  Running out of evaluations raises `NonConvergence`.
    """
    budgets = _cap_budgets(caps, dt)
    z = _water_fill(v, budgets)
    wealth = dt * float(np.vdot(p, e))
    spend = dt * float(np.vdot(p, z))
    if spend <= wealth:
        return z
    if wealth <= 1e-300:
        # worthless endowment: every component with positive price must vanish
        return _water_fill(np.where(p > 0, np.minimum(v, 0.0), v), budgets)
    # accept a point that spends at most tol less than the wealth; the
    # search aims at the middle of that window, so g below is measured from
    # there, with g(lo) > 0 > g(hi)
    tol = 2e-15 * wealth
    target = wealth - 0.5 * tol
    lo, glo = 0.0, spend - target
    hi = ghi = zhi = None
    kept = 0  # +1 when lo survived the last bracket step, -1 when hi did
    lam = (spend - wealth) / max(dt * float(np.vdot(p * p, z > 0)), 1e-300)
    for _ in range(_MAX_SEARCH):
        zl = _water_fill(v - lam * p, budgets)
        spend = dt * float(np.vdot(p, zl))
        if wealth - tol <= spend <= wealth:
            return zl
        gl = spend - target
        if gl > 0.0:
            if hi is None:
                step = gl * (lam - lo) / (glo - gl) if glo > gl else lam
                lo, glo = lam, gl
                lam += min(lam, step)
                continue
            if kept == -1:
                ghi *= 0.5
            lo, glo, kept = lam, gl, -1
        else:
            if kept == 1:
                glo *= 0.5
            hi, ghi, zhi, kept = lam, gl, zl, 1
        if hi - lo <= 4.0 * np.spacing(hi):
            return zhi
        # keep the trial point inside, so a secant step that rounds onto an
        # end still shrinks the bracket
        pad = 2.0 * np.spacing(hi)
        lam = min(max(hi - ghi * (hi - lo) / (ghi - glo), lo + pad), hi - pad)
    raise NonConvergence(
        f"budget multiplier search did not converge in {_MAX_SEARCH} evaluations",
        last_iterate=zl,
        residuals={
            "budget_gap": spend - wealth,
            "bracket_width": np.inf if hi is None else hi - lo,
        },
    )


# Newton steps the budget-cone kernel may take before it gives up
_MAX_NEWTON = 100


def _spend(Z: np.ndarray, p: np.ndarray, dt: float) -> np.ndarray:
    """<<p, z>> of every slice z of a (k, cells, m) block.  Each slice is
    summed on its own, so its spend does not depend on the block it is in."""
    return dt * np.einsum("kcm,cm->k", Z, p)


def _project_budget_cone(V, p, e, dt):
    """Project every slice of the (k, cells, m) block V onto the uncapped
    budget set {z >= 0 : <<p, z - e>> <= 0}.

    A slice projects to max(0, v - lam p), where lam >= 0 is the root of
    the convex, nonincreasing spend map s(lam) = <<p, max(0, v - lam p)>>
    at the wealth <<p, e>>.  Newton's method from lam = 0, with the slope
    taken over the components still positive, is Michelot's variable
    fixing: on a convex map it never passes the root, so it settles after
    finitely many steps, all slices at once.  It aims at a spend 1e-14 of
    the wealth below the wealth and takes the first iterate that spends at
    least half that margin less than the wealth, so no slice overspends
    however its spend is summed: summing the cells * m terms in another
    order moves the sum far less.  A step too small to move lam moves it
    one ulp.  Running out of steps raises `NonConvergence`.
    """
    Z = np.maximum(V, 0.0)
    wealth = dt * float(np.vdot(p, e))
    spend = _spend(Z, p, dt)
    todo = np.nonzero(spend > wealth)[0]
    if todo.size == 0:
        return Z
    if wealth <= 1e-300:
        # worthless endowment: every component with positive price must vanish
        Z[todo] = np.where(p > 0, 0.0, Z[todo])
        return Z
    margin = 1e-14 * wealth
    p2 = p * p
    Vt, Zt, st = V[todo], Z[todo], spend[todo]
    lam = np.zeros(todo.size)
    for _ in range(_MAX_NEWTON):
        # np.sign(Zt) is 1 on the components still positive and 0 elsewhere
        step = (st - wealth + margin) / np.maximum(_spend(np.sign(Zt), p2, dt), 1e-300)
        lam = np.maximum(lam + step, np.nextafter(lam, np.inf))
        np.multiply(lam[:, None, None], p, out=Zt)
        np.subtract(Vt, Zt, out=Zt)
        np.maximum(Zt, 0.0, out=Zt)
        st = _spend(Zt, p, dt)
        done = st <= wealth - 0.5 * margin
        Z[todo[done]] = Zt[done]
        if done.all():
            return Z
        left = ~done
        todo, lam, Vt, Zt, st = todo[left], lam[left], Vt[left], Zt[left], st[left]
    raise NonConvergence(
        f"budget-cone Newton iteration did not converge in {_MAX_NEWTON} steps",
        last_iterate=Zt,
        residuals={"budget_gap": float(np.max(st)) - wealth, "unsettled": int(todo.size)},
    )


def _canonical_parts(parts):
    """Split an intersection into (budget, capbox, rest) when the pattern fits."""
    budget = [p for p in parts if isinstance(p, BudgetHalfspace)]
    capbox = [p for p in parts if isinstance(p, CapBox)]
    rest = [p for p in parts if not isinstance(p, (BudgetHalfspace, CapBox))]
    if len(budget) == 1 and len(capbox) == 1:
        return budget[0], capbox[0], rest
    return None


def project_values(v: np.ndarray, s: SetDescriptor, grid: TimeGrid) -> np.ndarray:
    """Project raw values onto `s`; used internally by the iterative solvers."""
    dt = grid.dt
    if isinstance(s, PointwiseSimplex):
        return _simplex_rows(v)
    if isinstance(s, BudgetHalfspace):
        return _halfspace_values(v, s.price.values, s.endowment.values, dt)
    if isinstance(s, CapBox):
        return _water_fill(v, _cap_budgets(s.caps, dt))
    if isinstance(s, Ball):
        return _ball_values(v, s.radius, s.center, dt)
    if isinstance(s, Intersection):
        canon = _canonical_parts(s.parts)
        if canon is None:
            return _dykstra_values(v, s.parts, grid, DYKSTRA_TOL, DYKSTRA_MAX_ITER)
        budget, capbox, rest = canon
        if not rest:
            return _project_budget_capbox(
                v, budget.price.values, budget.endowment.values, capbox.caps, dt
            )
        # the exact budget-and-caps pair is one Dykstra part; it dispatches back here
        return _dykstra_values(
            v, (Intersection((budget, capbox)), *rest), grid, DYKSTRA_TOL, DYKSTRA_MAX_ITER
        )
    raise TypeError(f"not a projectable set descriptor: {s!r}")


def _dykstra_values(v, parts, grid, tol, max_iter):
    """Dykstra's alternating projections with per-part correction terms.

    Plain alternation converges to a point of the intersection but not to
    the metric projection; the corrections restore it for convex parts.
    A sweep can leave the iterate in place while the corrections still
    move, so the stop test asks both to have settled (Birgin & Raydan 2005).
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


def membership_residual_values(v: np.ndarray, s: SetDescriptor, grid: TimeGrid) -> float:
    dt = grid.dt
    if isinstance(s, PointwiseSimplex):
        sum_viol = np.max(np.abs(v.sum(axis=1) - 1.0))
        neg_viol = max(0.0, -v.min())
        return float(max(sum_viol, neg_viol))
    if isinstance(s, BudgetHalfspace):
        return float(max(0.0, dt * np.sum(s.price.values * (v - s.endowment.values))))
    if isinstance(s, CapBox):
        neg = max(0.0, -v.min())
        excess = 0.0
        for j, cap in enumerate(s.caps):
            if np.isfinite(cap):
                excess = max(excess, dt * v[:, j].sum() - cap)
        return float(max(neg, excess))
    if isinstance(s, Ball):
        c = np.asarray(s.center) if s.center else 0.0
        r = np.sqrt(dt) * np.linalg.norm(v - c)
        return float(max(0.0, r - s.radius))
    if isinstance(s, Intersection):
        return float(max(membership_residual_values(v, p, grid) for p in s.parts))
    raise TypeError(f"not a set descriptor: {s!r}")


# --- grid-function API ---


def project(x: GridFunction, s: SetDescriptor) -> GridFunction:
    """Metric projection of `x` onto the set described by `s`."""
    if isinstance(s, PointwiseSimplex):
        return project_pointwise_simplex(x)
    return x.with_values(project_values(x.values, s, x.grid))


def membership_residual(x: GridFunction, s: SetDescriptor) -> float:
    """Maximum constraint violation of `x` against `s`, in natural units."""
    return membership_residual_values(x.values, s, x.grid)


def project_pointwise_simplex(q: GridFunction) -> PriceCurve:
    """Cell-by-cell projection onto the unit simplex of price space."""
    return PriceCurve(q.grid, _simplex_rows(q.values))


def project_budget_halfspace(x: GridFunction, p: GridFunction, e: GridFunction) -> GridFunction:
    """Closed-form projection onto {z : <<p, z - e>> <= 0}."""
    if x.grid.dt * np.sum(p.values**2) <= 1e-300:
        raise DegenerateSet("cannot project onto a budget set with zero price curve")
    return x.with_values(_halfspace_values(x.values, p.values, e.values, x.grid.dt))


def project_cap_box(x: GridFunction, caps: Sequence[float]) -> GridFunction:
    """Projection onto the nonnegative cone with per-component integral caps."""
    return x.with_values(project_values(x.values, CapBox(tuple(caps)), x.grid))


def project_intersection(
    x: GridFunction,
    parts: Sequence[SetDescriptor],
    tol: float = DYKSTRA_TOL,
    max_iter: int = DYKSTRA_MAX_ITER,
) -> GridFunction:
    """Dykstra projection onto the intersection of `parts`.

    Always runs the general alternating scheme; `project` with an
    `Intersection` descriptor additionally recognizes the budget-and-caps
    pattern and solves it exactly, which the tests cross-check against
    this path.
    """
    return x.with_values(_dykstra_values(x.values, tuple(parts), x.grid, tol, max_iter))


def sample_feasible_blocks(
    s: SetDescriptor,
    center: np.ndarray,
    grid: TimeGrid,
    scale: float,
    rng: np.random.Generator,
    count: int,
):
    """Yield `count` feasible points as (k, cells, m) blocks: Gaussian noise
    around the (cells, m) array `center`, drawn a block of at most
    `_SAMPLE_CHUNK` elements at a time (the generator stream is that of
    one draw per sample), then projected onto `s`.

    The uncapped budget cone projects a whole block at once
    (`_project_budget_cone`); every other set projects slice by slice with
    `project_values`, so those samples are the ones a per-sample loop draws.
    """
    per = max(1, _SAMPLE_CHUNK // center.size)
    budget = None
    if isinstance(s, Intersection):
        canon = _canonical_parts(s.parts)
        if canon and not canon[2] and _cap_budgets(canon[1].caps, grid.dt) is None:
            budget = canon[0]
    for start in range(0, count, per):
        block = rng.normal(0.0, scale, size=(min(per, count - start), *center.shape))
        block += center
        if budget is not None:
            block = _project_budget_cone(block, budget.price.values, budget.endowment.values, grid.dt)
        else:
            for k, v in enumerate(block):
                block[k] = project_values(v, s, grid)
        yield block


def sample_feasible(
    s: SetDescriptor,
    center: GridFunction,
    scale: float,
    rng: np.random.Generator,
    count: int,
) -> list[GridFunction]:
    """Feasible points obtained by projecting Gaussian clouds around `center`.

    The noise is drawn in blocks (`sample_feasible_blocks`); on every set
    but the uncapped budget cone the points are bit for bit those of one
    draw and one `project` per sample.
    """
    if isinstance(s, PointwiseSimplex):
        wrap = partial(PriceCurve, center.grid)
    else:
        wrap = center.with_values
    return [
        wrap(y)
        for block in sample_feasible_blocks(s, center.values, center.grid, scale, rng, count)
        for y in block
    ]
