"""Time-dependent pure exchange economies.

Agents hold endowment curves and a utility family; utilities are evaluated
as exact cell sums of u(t, x(t)).  Two families are built in:

* Quadratic: u(t, w) = <bliss(t), w> - 0.5 * <w, weights * w>, strictly
  concave, gradient bliss(t) - weights * w.  Bliss points can satiate, so
  Walras' law is reported rather than asserted downstream.
* LogShift: u(w) = sum_j a_j log(shift + w_j), concave and increasing with
  gradient bounded by a_j / shift, so the linear growth bound holds with
  slope zero.

Raw log utilities (unshifted) violate the growth bound near zero and are
deliberately not provided.

Both families are separable with invertible gradients, so an agent's best
response on the capped budget set has an exact KKT solution (`demand`):
one monotone root for the budget multiplier and one per binding cap, the
continuous nonlinear resource-allocation problem (Patriksson 2008).  A
LogShift agent's budget search takes as its first trial the exact root with
every cap ignored, found from its sorted breakpoints, so a demand takes one
plan evaluation unless a cap binds there.  A Quadratic demand is a
budget-and-caps projection, which starts from the same root, found by
variable fixing, and takes one capped-cone evaluation unless a cap binds
there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainViolation, NonConvergence, require_integer, require_positive_real
from .grids import GridFunction, PriceCurve, TimeGrid, split_components
from .qvi import QVIProblem
from .reports import CertReport
from .sets import (
    _MAX_NEWTON,
    _SEARCH_WINDOW,
    BudgetHalfspace,
    CapBox,
    Intersection,
    PointwiseSimplex,
    _cap_budgets,
    _multiplier_search,
    _project_budget_capbox,
)
from .vi import OperatorHandle

#: least factor by which `default_caps` may exceed the aggregate endowment
MIN_CAP_SLACK = 1.05


class UtilitySpec:
    """Interface of a per-instant utility family on one grid.

    Implementations provide cellwise values/gradients for (cells, m)
    consumption arrays, and for (k, cells, m) blocks of them, reducing over
    the last axis, and declare the constants of their linear gradient
    growth bound.
    `block_sums` reduces a block to the two sums the certificate compares,
    and a family may override it with a faster reduction.  A family
    may also provide `demand`, its exact best response on a capped budget
    set; `assemble_qvi` hands it to the solver when every agent's family
    does.
    """

    def cell_values(self, w: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def cell_gradients(self, w: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def growth_constants(self) -> tuple:
        """(C, g) with ||grad u(t_k, w)|| <= C ||w|| + g[k] claimed on the cone."""
        raise NotImplementedError

    def check_domain(self, w: np.ndarray) -> None:
        """Raise DomainViolation when w is outside the family's domain."""

    def block_sums(self, ys: np.ndarray, x: np.ndarray) -> tuple:
        """For each slice y of the (k, cells, m) block `ys`, the sum of u(y)
        over cells and the sum of grad u(y) . (y - x) over cells and goods,
        with x a (cells, m) plan: two (k,) arrays.  Raises DomainViolation
        when a slice is outside the family's domain."""
        self.check_domain(ys)
        values = np.sum(self.cell_values(ys), axis=1)
        slopes = np.sum((self.cell_gradients(ys) * (ys - x)).reshape(len(ys), -1), axis=1)
        return values, slopes

    def demand(self, p: np.ndarray, e: np.ndarray, caps, dt: float) -> np.ndarray:
        """The maximizer of the time-integrated utility over the capped
        budget set {x >= 0 : <<p, x - e>> <= 0, dt sum_k x_kj <= caps[j]},
        as a (cells, m) array that never overspends.  Raises
        `NonConvergence` when a multiplier search runs out."""
        raise NotImplementedError


@dataclass(frozen=True)
class Quadratic(UtilitySpec):
    bliss: GridFunction
    weights: tuple

    def __post_init__(self):
        if len(self.weights) != self.bliss.components:
            raise ValueError("one weight per good is required")
        object.__setattr__(self, "weights", _weights(self.weights))

    def cell_values(self, w):
        q = np.asarray(self.weights)
        # einsum, not np.sum(axis=-1): a sum over a last axis of a few goods
        # pays numpy's per-row reduction cost once per cell
        return np.einsum("...m,...m->...", self.bliss.values - 0.5 * q * w, w)

    def cell_gradients(self, w):
        return self.bliss.values - np.asarray(self.weights) * w

    def block_sums(self, ys, x):
        # the weights laid out per cell, so every product and sum below runs
        # over a slice's cells * m values at once, not m at a time
        q = np.full(ys.shape[1:], self.weights)
        b = self.bliss.values
        qy = ys * q
        half = 0.5 * qy
        values = np.einsum("kcm,kcm->k", np.subtract(b, half, out=half), ys)
        gradients = np.subtract(b, qy, out=qy)
        slopes = np.einsum("kcm,kcm->k", gradients, np.subtract(ys, x, out=half))
        return values, slopes

    def growth_constants(self):
        g = np.linalg.norm(self.bliss.values, axis=1)
        return max(self.weights), g

    def demand(self, p, e, caps, dt):
        # maximizing <b, x> - 0.5 <x, q x> is projecting b / q in the q-metric
        q = np.asarray(self.weights)
        return _project_budget_capbox(self.bliss.values / q, p, e, caps, dt, weights=q)

    def check_domain(self, w):
        pass


@dataclass(frozen=True)
class LogShift(UtilitySpec):
    weights: tuple
    shift: float
    cells: int

    def __post_init__(self):
        object.__setattr__(self, "weights", _weights(self.weights))
        require_positive_real("shift", self.shift)

    def cell_values(self, w):
        self.check_domain(w)
        return np.einsum("...m,m->...", np.log(self.shift + w), np.asarray(self.weights))

    def cell_gradients(self, w):
        self.check_domain(w)
        return np.asarray(self.weights) / (self.shift + w)

    def block_sums(self, ys, x):
        self.check_domain(ys)
        # the weights laid out per cell, as in `Quadratic.block_sums`
        a = np.full(ys.shape[1:], self.weights)
        shifted = self.shift + ys
        # grad u(y) . (y - x) = a (y - x) / (shift + y): one division pass
        steps = ys - x
        slopes = np.einsum("kcm,cm->k", np.divide(steps, shifted, out=steps), a)
        values = np.einsum("kcm,cm->k", np.log(shifted, out=shifted), a)
        return values, slopes

    def growth_constants(self):
        g = np.full(self.cells, sum(self.weights) / self.shift)
        return 0.0, g

    def demand(self, p, e, caps, dt):
        """x = max(0, a_j / (lam p + mu_j) - shift): lam from the multiplier
        search of the budget projection, each mu_j from `_logshift_plan`.

        Spend falls as lam grows.  At lam = 0 an uncapped good's demand is
        unbounded, so with one the search's lower end is instead the lam at
        which the uncapped goods alone, clamps ignored, spend the wealth;
        clamps and capped goods only add spend there.  Its first trial is
        `_logshift_root`, the exact lam with every cap ignored, which lies
        above that lower end; caps only cut spend, so the trial's plan is
        the answer unless a cap binds there.
        """
        a = np.asarray(self.weights)
        budgets = _cap_budgets(caps, dt)
        uncapped = np.ones(a.size, bool) if budgets is None else ~np.isfinite(budgets)
        if np.any((p == 0) & uncapped):
            raise NonConvergence(
                "LogShift demand is unbounded: an uncapped good is free in some cell"
            )
        wealth = dt * float(np.vdot(p, e))
        if wealth <= 1e-300:
            # worthless endowment: every component with positive price must vanish
            return _logshift_plan(np.where(p > 0, np.inf, 0.0), a, self.shift, budgets)
        lo = 0.0
        if uncapped.any():
            pu = p[:, uncapped]
            lo = dt * pu.shape[0] * a[uncapped].sum() / (wealth + dt * self.shift * pu.sum())
        # the root aims at the middle of the window the search accepts
        lam = _logshift_root(p, a, self.shift, wealth * (1.0 - 0.5 * _SEARCH_WINDOW) / dt)
        return _multiplier_search(
            lambda lam: _logshift_plan(lam * p, a, self.shift, budgets),
            lambda x: dt * float(np.vdot(p, x)),
            wealth, lo, lam,
        )

    def check_domain(self, w):
        if np.min(w) < -1e-9:
            raise DomainViolation("LogShift utilities are defined for nonnegative consumption")


def _weights(weights) -> tuple:
    return tuple(require_positive_real(f"weights[{j}]", w) for j, w in enumerate(weights))


def _logshift_root(p, a, shift, target):
    """The lam at which x_kj = max(0, a_j / (lam p_kj) - shift), taken over
    the entries with p_kj > 0 and every cap ignored, has sum_kj p_kj x_kj
    equal to the positive `target`.

    With mu = 1 / lam each term p x = max(0, a_j mu - shift p_kj) is linear
    in mu past its breakpoint shift p_kj / a_j, so the spend is piecewise
    linear and increasing in mu.  Sorting the breakpoints and summing a and
    p over each prefix gives the spend at every breakpoint; the last one
    spending below the target fixes the active prefix, on which
    mu = (target + shift sum p) / sum a (the breakpoint search of the
    continuous knapsack problem, Kiwiel 2008).
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


def _logshift_plan(c, a, shift, budgets):
    """The maximizer of sum_kj a_j log(shift + x_kj) - c_kj x_kj over the
    capped cone, for nonnegative costs c (cells, m), possibly +inf.

    x_kj = max(0, a_j / (c_kj + mu_j) - shift), with mu_j = 0 where the
    cap of good j is slack.  Where it binds, mu_j is the root of the convex,
    decreasing column sum S_j(mu) = sum_k x_kj at `budgets[j]`, found by
    Newton's method from a lower bound, which never passes the root.  It
    aims at the lower edge of the window `_SEARCH_WINDOW` below the budget
    and stops in its lower half, so caps hold.  A step too small to move mu
    moves it one ulp.  Running out of steps raises `NonConvergence`.
    """
    x = np.divide(a, c, out=np.full(c.shape, np.inf), where=c > 0)
    np.maximum(x - shift, 0.0, out=x)
    if budgets is None:
        return x
    idx = np.nonzero(x.sum(axis=0) > budgets)[0]
    if idx.size == 0:
        return x
    C, A, B = c[:, idx], a[idx], budgets[idx]
    # S_j >= cap at both bounds: every term is at least a / (max c + mu) - shift,
    # and the zero-cost cells alone reach the cap at the second
    mu = np.maximum(A / (shift + B / C.shape[0]) - C.max(axis=0), 0.0)
    free = np.count_nonzero(C == 0, axis=0)
    mu = np.where(free > 0, np.maximum(mu, A / (shift + B / np.maximum(free, 1))), mu)
    margin = _SEARCH_WINDOW * B
    for _ in range(_MAX_NEWTON):
        r = A / (C + mu)
        X = np.maximum(r - shift, 0.0)
        S = X.sum(axis=0)
        done = S <= B - 0.5 * margin
        x[:, idx[done]] = X[:, done]
        if done.all():
            return x
        left = ~done
        idx, C, A, B, margin = idx[left], C[:, left], A[left], B[left], margin[left]
        r, X, S, mu = r[:, left], X[:, left], S[left], mu[left]
        # -S_j'(mu) is the sum over the positive terms of a / (c + mu)^2
        slope = np.where(X > 0, r * r, 0.0).sum(axis=0) / A
        mu = np.maximum(mu + (S - B + margin) / np.maximum(slope, 1e-300), np.nextafter(mu, np.inf))
    raise NonConvergence(
        f"LogShift cap multiplier search did not converge in {_MAX_NEWTON} steps",
        last_iterate=x,
        residuals={"cap_gap": float(np.max(S - B)), "unsettled": int(idx.size)},
    )


@dataclass(frozen=True)
class Agent:
    endowment: GridFunction
    utility: UtilitySpec

    def __post_init__(self):
        if np.min(self.endowment.values) < 0:
            raise ValueError("endowments must be nonnegative everywhere")

    @property
    def survivable(self) -> bool:
        return bool(np.min(self.endowment.values) > 1e-12)


@dataclass(frozen=True)
class Economy:
    grid: TimeGrid
    goods: int
    agents: tuple

    def __post_init__(self):
        agents = tuple(self.agents)
        if not agents:
            raise ValueError("an economy needs at least one agent")
        for a in agents:
            if a.endowment.grid != self.grid or a.endowment.components != self.goods:
                raise ValueError("all agents must share the economy's grid and goods count")
        object.__setattr__(self, "agents", agents)

    @property
    def n_agents(self) -> int:
        return len(self.agents)


def utility_value(agent: Agent, x: GridFunction) -> float:
    """Time-integrated utility of a consumption plan (exact cell sum)."""
    agent.utility.check_domain(x.values)
    return float(x.grid.dt * np.sum(agent.utility.cell_values(x.values)))


def utility_gradient(agent: Agent, w: np.ndarray) -> np.ndarray:
    """Cellwise gradient of the instantaneous utility along the plan whose
    (cells, m) values are `w`, as an array of the same shape; raises
    DomainViolation when w is outside the family's domain."""
    agent.utility.check_domain(w)
    return agent.utility.cell_gradients(w)


def agent_operator(agent: Agent) -> OperatorHandle:
    """The agent's VI operator: the negative utility gradient (monotone for concave u)."""
    # through the module global, so a rebinding of `utility_gradient` sees every call
    return OperatorHandle(lambda w: -utility_gradient(agent, w), monotonicity="monotone")


def aggregate_endowment_integrals(eco: Economy) -> np.ndarray:
    total = sum(a.endowment.values for a in eco.agents)
    return eco.grid.dt * total.sum(axis=0)


def require_cap_slack(name: str, slack) -> float:
    """`slack` as a float; ValueError, naming it, unless finite and >= `MIN_CAP_SLACK`."""
    if require_positive_real(name, slack) < MIN_CAP_SLACK:
        raise ValueError(f"{name}: must be >= {MIN_CAP_SLACK}, got {slack!r}")
    return float(slack)


def default_caps(eco: Economy, slack: float = 1.1) -> np.ndarray:
    """Per-good consumption caps: slack times the aggregate endowment integral.

    The strict inequality cap > integral is what lets optimality on the
    capped budget set extend to the uncapped one at equilibrium.
    """
    require_cap_slack("slack", slack)
    totals = aggregate_endowment_integrals(eco)
    if np.any(totals <= 0):
        raise ValueError("degenerate economy: a good has zero aggregate endowment")
    return slack * totals


def assemble_qvi(eco: Economy, caps: Sequence[float]) -> QVIProblem:
    """Build the split QVI for the economy.

    Price set: per-cell unit simplex.  Constraint map: budget halfspace at
    the given price intersected with the capped cone.  Operator: stacked
    negative utility gradients.  Outer map: aggregate unsold endowment
    sum_i (e_i - x_i).
    """
    caps = np.asarray(caps, dtype=float)
    if caps.shape != (eco.goods,):
        raise ValueError(f"need one cap per good, got shape {caps.shape}")
    totals = aggregate_endowment_integrals(eco)
    if not np.all(caps > totals):
        raise ValueError(
            "caps must strictly exceed the aggregate endowment integral per good: "
            f"caps={caps.tolist()}, integrals={totals.tolist()}"
        )
    cap_box = CapBox(tuple(caps))
    endowments = [a.endowment for a in eco.agents]
    specs = [a.utility for a in eco.agents]

    def constraint_map(p: PriceCurve) -> list:
        return [Intersection((BudgetHalfspace(p, e), cap_box)) for e in endowments]

    def outer_map(x: GridFunction) -> GridFunction:
        blocks = split_components(x, eco.n_agents)
        total = sum((e.values - b.values) for e, b in zip(endowments, blocks))
        return GridFunction(eco.grid, total)

    def demand(i: int, p: PriceCurve) -> np.ndarray:
        return specs[i].demand(p.values, endowments[i].values, caps, eco.grid.dt)

    # a family that keeps the base method has no closed form
    exact = all(type(s).demand is not UtilitySpec.demand for s in specs)
    return QVIProblem(
        price_set=PointwiseSimplex(),
        constraint_map=constraint_map,
        agent_operators=[agent_operator(a) for a in eco.agents],
        outer_map=outer_map,
        grid=eco.grid,
        goods=eco.goods,
        warm_starts=endowments,
        caps=tuple(caps),
        demand=demand if exact else None,
    )


def survivability_check(eco: Economy) -> list:
    """Strictly positive endowment in every cell and good, per agent."""
    return [a.survivable for a in eco.agents]


def _cell_at(f, w, k, shape):
    """The cellwise formula `f` of a family at consumption w in cell k of a
    plan of the given shape."""
    return f(np.broadcast_to(w, shape))[k]


def _sampled_margin(agent, samples, seed, decades, points, margin, tolerance, name):
    """Worst `margin(k, *ws)` over `samples` draws of a cell k and `points`
    consumption vectors |N(0, I)| times one scale, log-uniform over
    `decades`.  A NaN margin is the worst: it fails at once, with its
    sample as the witness."""
    require_integer("samples", samples, 1)
    require_integer("seed", seed, 0)
    rng = np.random.default_rng(seed)
    cells, m = agent.endowment.values.shape
    worst_margin, witness = np.inf, None
    for used in range(1, samples + 1):
        k = int(rng.integers(cells))
        scale = 10.0 ** rng.uniform(*decades)
        ws = [scale * np.abs(rng.normal(size=m)) for _ in range(points)]
        value = float(margin(k, *ws))
        if value < worst_margin or np.isnan(value):
            worst_margin, witness = value, (k, *ws)
            if np.isnan(value):
                break
    ok = worst_margin >= 0
    return CertReport(
        verdict=ok,
        residuals={"worst_margin": worst_margin},
        witness=None if ok else witness,
        tolerance=tolerance,
        samples_used=used,
        seed=seed,
        name=name,
    )


def check_growth_condition(agent: Agent, samples: int = 200, seed: int = 0) -> CertReport:
    """Sampled check of the declared gradient growth bound on the cone.

    Magnitudes are drawn log-uniformly over several decades so families with
    superlinear gradients fail at large consumption, where they must.
    """
    u, shape = agent.utility, agent.endowment.values.shape
    C, g = u.growth_constants()
    g = np.broadcast_to(np.asarray(g, dtype=float), shape[:1])

    def margin(k, w):
        lhs = float(np.linalg.norm(_cell_at(u.cell_gradients, w, k, shape)))
        return C * float(np.linalg.norm(w)) + g[k] + 1e-9 - lhs

    return _sampled_margin(agent, samples, seed, (-2, 3), 1, margin, 1e-9, "growth-condition")


def check_concavity(agent: Agent, samples: int = 200, seed: int = 0) -> CertReport:
    """Sampled midpoint-concavity check of the instantaneous utility."""
    u, shape = agent.utility, agent.endowment.values.shape

    def margin(k, w1, w2):
        mid = _cell_at(u.cell_values, 0.5 * (w1 + w2), k, shape)
        avg = 0.5 * (_cell_at(u.cell_values, w1, k, shape) + _cell_at(u.cell_values, w2, k, shape))
        return mid - avg + 1e-10

    return _sampled_margin(agent, samples, seed, (-1, 2), 2, margin, 1e-10, "concavity")
