"""Convex constraint sets and their metric projections.

Set descriptors are small immutable records; `project` is the one entry
point and dispatches on the descriptor kind.  All projections are metric
projections in the L2 geometry of the grid.  Because the grid is uniform,
the dt weight cancels from every cellwise projection, so the per-cell
rules coincide with plain Euclidean ones; only integral constraints
(budget, caps, ball) see dt explicitly.
Every projection `project` takes is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import DegenerateSet, NonConvergence, require_finite_real, require_positive_real
from .grids import GridFunction, PriceCurve, TimeGrid, _l2

#: elements (samples x cells x goods) that `sample_feasible_blocks` draws
#: and projects as one block; bounds its temporaries, and is large enough
#: that concurrent best-response checks spend little of it waiting on the GIL
_SAMPLE_CHUNK = 2**16


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
        caps = (np.inf if c == np.inf else require_positive_real(f"caps[{j}]", c)
                for j, c in enumerate(self.caps))
        object.__setattr__(self, "caps", tuple(caps))


@dataclass(frozen=True)
class Ball(SetDescriptor):
    """Closed L2 ball of given radius; `center` is a constant per-component shift."""

    radius: float
    center: tuple = ()

    def __post_init__(self):
        require_positive_real("radius", self.radius)
        center = tuple(require_finite_real(f"center[{j}]", c) for j, c in enumerate(self.center))
        object.__setattr__(self, "center", center)


@dataclass(frozen=True)
class Intersection(SetDescriptor):
    """Intersection of the listed parts.

    `project` solves one budget set, one capped cone and at most one ball
    centered at 0 exactly.  `canonical` is that split, (budget, capbox,
    ball or None), resolved on construction; None when the parts are of
    another kind.
    """

    parts: tuple
    canonical: Optional[tuple] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        parts = tuple(self.parts)
        if not parts:
            raise ValueError("intersection needs at least one part")
        object.__setattr__(self, "parts", parts)
        budget = [p for p in parts if isinstance(p, BudgetHalfspace)]
        capbox = [p for p in parts if isinstance(p, CapBox)]
        balls = [p for p in parts if isinstance(p, Ball) and not any(p.center)]
        canonical = None
        if len(budget) == len(capbox) == 1 and len(balls) <= 1 and len(parts) == 2 + len(balls):
            canonical = (budget[0], capbox[0], balls[0] if balls else None)
        object.__setattr__(self, "canonical", canonical)


# --- array-level projection kernels (hot path; values shaped (cells, m)) ---


def _thresholds(V: np.ndarray, budgets) -> np.ndarray:
    """The columns of V water-filled to `budgets`: max(0, V_kj - tau_j),
    with tau_j such that column j sums to budgets[j] > 0, by
    sort-and-threshold (Held, Wolfe & Crowder 1974; Duchi et al. 2008):
    tau_j is (sum of the top k entries - budget) / k at the largest k whose
    k-th entry exceeds it.  Ties give the same tau.

    Each column is shifted by its top entry first.  The entries that stay
    positive lie within the budget of that entry, so shifted they are at
    most the budget in size, and tau keeps the precision of the budget
    however far from 0 the entries sit.  With the top entry at 0 and
    tau <= -budget / k, the top entry always qualifies."""
    V = V - V.max(axis=0)
    U = np.sort(V, axis=0)[::-1]
    css = np.cumsum(U, axis=0)
    ks = np.arange(1, V.shape[0] + 1)[:, None]
    taus = (css - budgets) / ks
    rho = V.shape[0] - 1 - np.argmax((U > taus)[::-1], axis=0)
    return np.maximum(V - taus[rho, np.arange(V.shape[1])], 0.0)


def _simplex_rows(v: np.ndarray) -> np.ndarray:
    """Project each row of v onto the unit simplex."""
    out = _thresholds(v.T, 1.0).T
    # renormalize so the constraint holds exactly, not just to threshold error
    return out / out.sum(axis=1, keepdims=True)


def _cap_budgets(caps: Sequence[float], dt: float):
    """Per-component water-filling budgets cap/dt (+inf where uncapped), or
    None when no cap is finite.  Caps are positive or +inf (`CapBox`
    checks them).  This runs on every projection, so the test for no
    finite cap stays in Python, clear of numpy's per-call cost."""
    if min(caps) == np.inf:
        return None
    return np.asarray(caps, dtype=float) / dt


def _water_fill(v: np.ndarray, budgets) -> np.ndarray:
    """Project onto the capped cone: clamp to the cone, then water-fill the
    components whose integral cap binds.

    The water-filling threshold per component solves
    sum_k max(0, v_k - tau) = cap/dt, the KKT condition of the projection
    (`_thresholds`).  `budgets` comes from `_cap_budgets`.
    """
    out = np.maximum(v, 0.0)
    if budgets is None:
        return out
    need = out.sum(axis=0) > budgets
    if not need.any():
        return out
    idx = np.nonzero(need)[0]
    out[:, idx] = _thresholds(v[:, idx], budgets[idx])
    return out


def _halfspace_values(v: np.ndarray, p: np.ndarray, e: np.ndarray, dt: float) -> np.ndarray:
    pnorm2 = dt * np.sum(p * p)
    if pnorm2 <= 1e-300:
        raise DegenerateSet("cannot project onto a budget set with zero price curve")
    gap = dt * np.sum(p * (v - e))
    if gap <= 0.0:
        return v
    return v - (gap / pnorm2) * p


def _ball_values(v: np.ndarray, radius: float, center: tuple, dt: float) -> np.ndarray:
    c = np.asarray(center) if center else 0.0
    d = v - c
    r = np.sqrt(dt) * _l2(d)
    if r <= radius:
        return v
    return c + d * (radius / r)


# evaluations a multiplier search may spend, its lower end aside
_MAX_SEARCH = 200
# the one precision rule of the multiplier kernels: each stops at a point
# that measures within this fraction of its bound below the bound
_SEARCH_WINDOW = 1e-14
# Newton steps the certificate's budget-cone kernel may take
_MAX_NEWTON = 100


def _multiplier_search(evaluate, measure, bound, lo, lam, zlo=None):
    """Find the multiplier of a family of points z(lam) = evaluate(lam)
    whose `measure(z(lam))` does not increase with lam, at the positive
    `bound`: a budget multiplier (measure the spend, bound the wealth), a
    ball multiplier (measure the norm, bound the radius) or a cap
    multiplier (measure a column's sum, bound its budget).

    The search accepts a point that measures between 1 - `_SEARCH_WINDOW`
    and 1 times the bound.  `lam` is the caller's closed-form first trial,
    aimed at the window's middle; a trial that lands in the window is the
    answer, at one evaluation.  Only on a miss is the lower end `lo` < lam
    evaluated (`zlo` is its point, when the caller holds it already): a
    lower end within the bound is the answer.  Otherwise, until the measure
    crosses the bound, the next trial is the secant step through the last
    two points, never more than doubling lam.  Inside the bracket the
    search runs Illinois regula falsi: when the same end survives two steps
    in a row, its stored value is halved, so neither end stalls.  It stops
    in the window, or when the bracket is a few ulps wide and takes its
    upper end, so the result never exceeds the bound.  Running out of
    evaluations raises `NonConvergence`.
    """
    # g below is measured from the window's middle, with g(lo) > 0 > g(hi)
    tol = _SEARCH_WINDOW * bound
    target = bound - 0.5 * tol
    # a trial that rounds onto the lower end moves one ulp above it
    lam = max(lam, math.nextafter(lo, math.inf))
    glo = hi = ghi = zhi = None
    kept = 0  # +1 when lo survived the last bracket step, -1 when hi did
    for _ in range(_MAX_SEARCH):
        z = evaluate(lam)
        size = measure(z)
        if bound - tol <= size <= bound:
            return z
        if glo is None:
            zlo = evaluate(lo) if zlo is None else zlo
            size_lo = measure(zlo)
            if size_lo <= bound:
                return zlo
            glo = size_lo - target
        g = size - target
        if g > 0.0:
            if hi is None:
                step = g * (lam - lo) / (glo - g) if glo > g else lam
                lo, glo = lam, g
                lam += min(lam, step)
                continue
            if kept == -1:
                ghi *= 0.5
            lo, glo, kept = lam, g, -1
        else:
            if kept == 1:
                glo *= 0.5
            hi, ghi, zhi, kept = lam, g, z, 1
        if hi - lo <= 4.0 * np.spacing(hi):
            return zhi
        # keep the trial point inside, so a secant step that rounds onto an
        # end still shrinks the bracket
        pad = 2.0 * np.spacing(hi)
        lam = min(max(hi - ghi * (hi - lo) / (ghi - glo), lo + pad), hi - pad)
    raise NonConvergence(
        f"multiplier search did not converge in {_MAX_SEARCH} evaluations",
        last_iterate=z,
        residuals={"gap": size - bound, "bracket_width": np.inf if hi is None else hi - lo},
    )


def _fixing_root(alpha, beta, target, t):
    """The t at which the spend s(t) = sum max(0, alpha - t beta), with
    beta >= 0, equals the positive `target`, from a lower end t at which
    s(t) > target (t = -inf makes every entry active; then beta > 0).

    s is convex, nonincreasing and piecewise linear: the root of the
    continuous knapsack problem.  Newton's method from the lower end, with
    the slope taken over the entries still positive, is Michelot's variable
    fixing (Michelot 1986; Kiwiel 2008): no step passes the root, and each
    step lands on the root of s restricted to the entries still positive.
    Once that set stops shrinking, s is that linear piece, and t is its
    root.  t never decreases, so the set only shrinks and the iteration
    ends after at most one step per entry.  `_project_budget_cone` is its
    block form.  The dot products run on a 0/1 float copy of the positive
    mask, uncast.
    """
    active = alpha > t * beta
    positive = active.astype(float)
    count = np.count_nonzero(active)
    while True:
        slope = max(float(np.vdot(beta, positive)), 1e-300)
        t = max(t, (float(np.vdot(alpha, positive)) - target) / slope)
        np.greater(alpha, t * beta, out=active)
        settled = count
        count = np.count_nonzero(active)
        if count == settled:
            return t
        np.copyto(positive, active)


def _project_budget_capbox(v, p, e, caps, dt, weights=None):
    """Exact projection onto {z in capbox : <<p, z - e>> <= 0}.

    With per-good `weights` w the projection is taken in the metric
    sum_j w_j ||z_j - v_j||^2 instead.  The budget multiplier is the root
    of the nonincreasing piecewise-linear map
    g(lam) = <<p, P_capbox(v - lam p / w) - e>>; each evaluation is one
    capped-cone projection (`_water_fill`; the weights are constant per
    good, so it ignores them).

    With every cap ignored the spend is dt <<p, max(0, v - lam d)>>, whose
    root `_fixing_root` finds from the lower end lam = 0;
    `_multiplier_search` takes it as its first trial.  Caps only cut
    spend, so that root is the answer whenever no cap binds there, and one
    capped-cone evaluation settles the projection.  Where a cap binds at
    the root its point underspends, and the search runs from lam = 0.
    """
    budgets = _cap_budgets(caps, dt)
    wealth = dt * float(np.vdot(p, e))
    if dt * float(np.vdot(p, np.maximum(v, 0.0))) <= wealth:
        # caps only cut spend, so the capped point at lam = 0 is affordable too
        return _water_fill(v, budgets)
    if wealth <= 1e-300:
        # worthless endowment: every component with positive price must vanish
        return _water_fill(np.where(p > 0, np.minimum(v, 0.0), v), budgets)
    d = p if weights is None else p / weights
    # the root aims at the middle of the window the search accepts
    lam = _fixing_root(p * v, p * d, wealth * (1.0 - 0.5 * _SEARCH_WINDOW) / dt, 0.0)
    return _multiplier_search(
        lambda lam: _water_fill(v - lam * d, budgets),
        lambda z: dt * float(np.vdot(p, z)),
        wealth, 0.0, lam,
    )


def _project_budget_capbox_ball(v, p, e, caps, radius, dt):
    """Exact projection onto the budget-and-caps set C cut by Ball(0, radius).

    C contains 0, so the projection is P_C(v / (1 + nu)) for the ball
    multiplier nu >= 0, whose norm does not increase with nu (Bauschke &
    Combettes, Lagrangian duality for projections).  The norm is measured as
    `membership_residual_values` measures it, so the result stays in the ball.
    The search's first trial is the nu that would scale the nu = 0 point
    onto the sphere (at least an ulp of 1, or v would not move).
    """
    z = _project_budget_capbox(v, p, e, caps, dt)
    size = float(np.sqrt(dt) * _l2(z))
    if size <= radius:
        return z
    return _multiplier_search(
        lambda nu: _project_budget_capbox(v / (1.0 + nu), p, e, caps, dt),
        lambda z: float(np.sqrt(dt) * _l2(z)),
        radius, 0.0, max(size / radius - 1.0, np.spacing(1.0)), z,
    )


def _spend(Z: np.ndarray, p: np.ndarray, dt: float) -> np.ndarray:
    """<<p, z>> of every slice z of a (k, cells, m) block.  Each slice is
    summed on its own, so its spend does not depend on the block it is in."""
    return dt * np.einsum("kcm,cm->k", Z, p)


def _project_budget_cone(V, p, e, dt):
    """Project every slice of the (k, cells, m) block V onto the uncapped
    budget set {z >= 0 : <<p, z - e>> <= 0}.

    A slice projects to max(0, v - lam p), where lam >= 0 is the root of
    the convex, nonincreasing spend map s(lam) = <<p, max(0, v - lam p)>>
    at the wealth <<p, e>>.  This is the block form of the scalar root
    `_fixing_root`: variable-fixing Newton steps from lam = 0, all slices
    at once.  It keeps its own iteration, since the certificate's samples
    are pinned to its bits, and it aims at the lower edge of
    the window `_SEARCH_WINDOW` below the wealth and stops in its lower
    half, so no slice overspends however its spend is summed: summing the
    cells * m terms in another order moves the sum far less.  A step too
    small to move lam moves it one ulp.  Settled slices stay in the block
    with their lam frozen, so each step recomputes their points unchanged
    instead of copying the live slices out and back.  Running out of steps
    raises `NonConvergence`.
    """
    Z = np.maximum(V, 0.0)
    wealth = dt * float(np.vdot(p, e))
    spend = _spend(Z, p, dt)
    live = spend > wealth
    if not live.any():
        return Z
    if wealth <= 1e-300:
        # worthless endowment: every component with positive price must vanish
        Z[live] = np.where(p > 0, 0.0, Z[live])
        return Z
    margin = _SEARCH_WINDOW * wealth
    p2 = p * p
    lam = np.zeros(len(V))
    step = np.zeros(len(V))
    positive = np.empty_like(Z)
    for _ in range(_MAX_NEWTON):
        # the slope is taken over the components still positive; settled
        # slices take no step, so their lam stays frozen
        slope = np.maximum(_spend(np.greater(Z, 0.0, out=positive), p2, dt), 1e-300)
        np.divide(spend - wealth + margin, slope, out=step, where=live)
        lam = np.where(live, np.maximum(lam + step, np.nextafter(lam, np.inf)), lam)
        # lam_k p for every slice k: einsum forms the outer product about
        # twice as fast as a broadcast multiply, with the same products
        np.einsum("k,cm->kcm", lam, p, out=Z)
        np.subtract(V, Z, out=Z)
        np.maximum(Z, 0.0, out=Z)
        spend = _spend(Z, p, dt)
        live[spend <= wealth - 0.5 * margin] = False
        if not live.any():
            return Z
    raise NonConvergence(
        f"budget-cone Newton iteration did not converge in {_MAX_NEWTON} steps",
        last_iterate=Z[live],
        residuals={"budget_gap": float(np.max(spend[live])) - wealth, "unsettled": int(live.sum())},
    )


def project_values(v: np.ndarray, s: SetDescriptor, grid: TimeGrid) -> np.ndarray:
    """Project raw values onto `s` exactly; used internally by the solvers."""
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
        if s.canonical is None:
            raise TypeError(
                "no exact projection: an intersection must be one budget set, one capped"
                f" cone and at most one ball centered at 0, got {s!r}"
            )
        budget, capbox, ball = s.canonical
        args = (v, budget.price.values, budget.endowment.values, capbox.caps)
        if ball is None:
            return _project_budget_capbox(*args, dt)
        return _project_budget_capbox_ball(*args, ball.radius, dt)
    raise TypeError(f"not a projectable set descriptor: {s!r}")


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
        r = np.sqrt(dt) * _l2(v - c)
        return float(max(0.0, r - s.radius))
    if isinstance(s, Intersection):
        return float(max(membership_residual_values(v, p, grid) for p in s.parts))
    raise TypeError(f"not a set descriptor: {s!r}")


# --- grid-function API ---


def project(x: GridFunction, s: SetDescriptor) -> GridFunction:
    """Metric projection of `x` onto the set described by `s`; a
    `PriceCurve` when `s` is the `PointwiseSimplex`."""
    values = project_values(x.values, s, x.grid)
    if isinstance(s, PointwiseSimplex):
        return PriceCurve(x.grid, values)
    return x.with_values(values)


def membership_residual(x: GridFunction, s: SetDescriptor) -> float:
    """Maximum constraint violation of `x` against `s`, in natural units."""
    return membership_residual_values(x.values, s, x.grid)


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
        canon = s.canonical
        if canon and canon[2] is None and _cap_budgets(canon[1].caps, grid.dt) is None:
            budget = canon[0]
    for start in range(0, count, per):
        # normal(0, scale) is 0 + scale * z with z standard normal: the same bits
        block = rng.standard_normal(size=(min(per, count - start), *center.shape))
        block *= scale
        block += center
        if budget is not None:
            block = _project_budget_cone(block, budget.price.values, budget.endowment.values, grid.dt)
        else:
            for k, v in enumerate(block):
                block[k] = project_values(v, s, grid)
        yield block
