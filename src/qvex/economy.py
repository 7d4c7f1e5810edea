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
continuous nonlinear resource-allocation problem (Patriksson 2008).  With
every cap ignored, both families' spend is piecewise linear in a transform
of the budget multiplier, and its exact root comes from one variable-fixing
kernel (`sets._fixing_root`).  Each budget search takes that root as its
first trial, so a LogShift demand takes one plan evaluation, and a
Quadratic demand, a budget-and-caps projection, one capped-cone
evaluation, unless a cap binds there.
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
    _SEARCH_WINDOW,
    BudgetHalfspace,
    CapBox,
    Intersection,
    _cap_budgets,
    _fixing_root,
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
        `_logshift_root`, the exact lam with every cap ignored, found by
        variable fixing in -1 / lam; it lies above that lower end, and caps
        only cut spend, so the trial's plan is the answer unless a cap binds
        there.  A good that is uncapped and free in some cell has unbounded
        demand: `NonConvergence` names the first such good and cell.
        """
        a = np.asarray(self.weights)
        budgets = _cap_budgets(caps, dt)
        uncapped = np.ones(a.size, bool) if budgets is None else ~np.isfinite(budgets)
        free = (p == 0) & uncapped
        if free.any():
            k, j = np.argwhere(free)[0]
            raise NonConvergence(
                f"LogShift demand is unbounded: good {j} is uncapped and free in cell {k}"
                " (solve an uncapped economy by truncation: solve_qvi_truncated)"
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
    in mu past its breakpoint, so in t = -mu the spend is
    sum max(0, -shift p_kj - t a_j), whose root `_fixing_root` finds from
    the lower end t = -inf, where every entry is active.
    """
    live = p > 0
    t = _fixing_root(-shift * p[live], np.broadcast_to(a, p.shape)[live], target, -np.inf)
    return -1.0 / t


def _logshift_plan(c, a, shift, budgets):
    """The maximizer of sum_kj a_j log(shift + x_kj) - c_kj x_kj over the
    capped cone, for nonnegative costs c (cells, m), possibly +inf.

    x_kj = max(0, a_j / (c_kj + mu_j) - shift), with mu_j = 0 where the
    cap of good j is slack.  Where it binds, mu_j is the root of the convex,
    decreasing column sum S_j(mu) = sum_k x_kj at `budgets[j]`, found by
    `_multiplier_search` from a lower end at which S_j still exceeds the
    budget.  Its first trial is one Newton step from there, aimed at the
    middle of the window; S_j is convex, so that step never passes the
    root.  Each column is summed on its own, in the order
    `membership_residual` sums it, so which other columns bind does not
    change its rounding.  A search that runs out raises `NonConvergence`
    naming the good, with the plan so far as its last iterate.
    """
    x = np.divide(a, c, out=np.full(c.shape, np.inf), where=c > 0)
    np.maximum(x - shift, 0.0, out=x)
    if budgets is None:
        return x
    for j in np.nonzero(x.T.copy().sum(axis=1) > budgets)[0]:
        cj, aj, bound = c[:, j], a[j], budgets[j]
        # S_j >= cap at both bounds: every term is at least a / (max c + mu) - shift,
        # and the zero-cost cells alone reach the cap at the second
        lo = max(aj / (shift + bound / cj.size) - cj.max(), 0.0)
        free = np.count_nonzero(cj == 0)
        if free:
            lo = max(lo, aj / (shift + bound / free))
        r = aj / (cj + lo)
        zlo = np.maximum(r - shift, 0.0)
        # -S_j'(mu) is the sum over the positive terms of a / (c + mu)^2
        slope = max(float(np.sum(r[zlo > 0] ** 2)) / aj, 1e-300)
        lam = lo + (float(zlo.sum()) - bound * (1.0 - 0.5 * _SEARCH_WINDOW)) / slope
        try:
            x[:, j] = _multiplier_search(
                lambda mu: np.maximum(aj / (cj + mu) - shift, 0.0), np.sum, bound, lo, lam, zlo
            )
        except NonConvergence as exc:
            x[:, j] = exc.last_iterate
            message = f"LogShift cap multiplier search for good {j}: {exc}"
            raise NonConvergence(message, last_iterate=x, residuals=exc.residuals) from exc
    return x


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
    return OperatorHandle(lambda w: -utility_gradient(agent, w))


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
    """Build the split QVI for the economy, its endowments the warm starts.

    Constraint map: budget halfspace at the given price intersected with
    the capped cone.  Operator: stacked negative utility gradients.  Outer
    map: aggregate unsold endowment sum_i (e_i - x_i).
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
        constraint_map=constraint_map,
        agent_operators=[agent_operator(a) for a in eco.agents],
        outer_map=outer_map,
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
