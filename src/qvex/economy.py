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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainViolation
from .grids import GridFunction, PriceCurve, TimeGrid, split_components
from .qvi import QVIProblem
from .reports import CertReport
from .sets import BudgetHalfspace, CapBox, Intersection, PointwiseSimplex
from .vi import OperatorHandle


class UtilitySpec:
    """Interface of a per-instant utility family on one grid.

    Implementations provide cellwise values/gradients for (cells, m)
    consumption arrays, and for (k, cells, m) blocks of them, reducing over
    the last axis, plus single-cell evaluation for the probes, and
    declare the constants of their linear gradient growth bound.
    """

    def cell_values(self, w: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def cell_gradients(self, w: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def value_at(self, cell: int, w: np.ndarray) -> float:
        raise NotImplementedError

    def gradient_at(self, cell: int, w: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def growth_constants(self) -> tuple:
        """(C, g) with ||grad u(t_k, w)|| <= C ||w|| + g[k] claimed on the cone."""
        raise NotImplementedError

    def check_domain(self, w: np.ndarray) -> None:
        """Raise DomainViolation when w is outside the family's domain."""


@dataclass(frozen=True)
class Quadratic(UtilitySpec):
    bliss: GridFunction
    weights: tuple

    def __post_init__(self):
        weights = tuple(float(q) for q in self.weights)
        if len(weights) != self.bliss.components:
            raise ValueError("one weight per good is required")
        if any(q <= 0 for q in weights):
            raise ValueError("quadratic weights must be strictly positive")
        object.__setattr__(self, "weights", weights)

    def cell_values(self, w):
        q = np.asarray(self.weights)
        # einsum, not np.sum(axis=-1): a sum over a last axis of a few goods
        # pays numpy's per-row reduction cost once per cell
        return np.einsum("...m,...m->...", self.bliss.values - 0.5 * q * w, w)

    def cell_gradients(self, w):
        return self.bliss.values - np.asarray(self.weights) * w

    def value_at(self, cell, w):
        q = np.asarray(self.weights)
        return float(self.bliss.values[cell] @ w - 0.5 * np.sum(q * w * w))

    def gradient_at(self, cell, w):
        return self.bliss.values[cell] - np.asarray(self.weights) * w

    def growth_constants(self):
        g = np.linalg.norm(self.bliss.values, axis=1)
        return max(self.weights), g

    def check_domain(self, w):
        pass


@dataclass(frozen=True)
class LogShift(UtilitySpec):
    weights: tuple
    shift: float
    cells: int

    def __post_init__(self):
        weights = tuple(float(a) for a in self.weights)
        if any(a <= 0 for a in weights) or not self.shift > 0:
            raise ValueError("LogShift needs positive weights and a positive shift")
        object.__setattr__(self, "weights", weights)

    def cell_values(self, w):
        self.check_domain(w)
        return np.einsum("...m,m->...", np.log(self.shift + w), np.asarray(self.weights))

    def cell_gradients(self, w):
        self.check_domain(w)
        return np.asarray(self.weights) / (self.shift + w)

    def value_at(self, cell, w):
        self.check_domain(np.asarray(w))
        return float(np.sum(np.asarray(self.weights) * np.log(self.shift + np.asarray(w))))

    def gradient_at(self, cell, w):
        self.check_domain(np.asarray(w))
        return np.asarray(self.weights) / (self.shift + np.asarray(w))

    def growth_constants(self):
        g = np.full(self.cells, sum(self.weights) / self.shift)
        return 0.0, g

    def check_domain(self, w):
        if np.min(w) < -1e-9:
            raise DomainViolation("LogShift utilities are defined for nonnegative consumption")


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


def utility_gradient(agent: Agent, x: GridFunction) -> GridFunction:
    """Cellwise gradient of the instantaneous utility along the plan."""
    agent.utility.check_domain(x.values)
    return x.with_values(agent.utility.cell_gradients(x.values))


def agent_operator(agent: Agent) -> OperatorHandle:
    """The agent's VI operator: the negative utility gradient (monotone for concave u)."""
    return OperatorHandle(lambda x: -utility_gradient(agent, x), monotonicity="monotone")


def aggregate_endowment_integrals(eco: Economy) -> np.ndarray:
    total = sum(a.endowment.values for a in eco.agents)
    return eco.grid.dt * total.sum(axis=0)


def default_caps(eco: Economy, slack: float = 1.1) -> np.ndarray:
    """Per-good consumption caps: slack times the aggregate endowment integral.

    The strict inequality cap > integral is what lets optimality on the
    capped budget set extend to the uncapped one at equilibrium.
    """
    if slack < 1.05:
        raise ValueError(f"cap slack must be >= 1.05, got {slack}")
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
    if np.any(caps <= totals):
        raise ValueError(
            "caps must strictly exceed the aggregate endowment integral per good: "
            f"caps={caps.tolist()}, integrals={totals.tolist()}"
        )
    cap_box = CapBox(tuple(caps))
    endowments = [a.endowment for a in eco.agents]

    def constraint_map(p: PriceCurve) -> list:
        return [Intersection((BudgetHalfspace(p, e), cap_box)) for e in endowments]

    def outer_map(x: GridFunction) -> GridFunction:
        blocks = split_components(x, eco.n_agents)
        total = sum((e.values - b.values) for e, b in zip(endowments, blocks))
        return GridFunction(eco.grid, total)

    return QVIProblem(
        price_set=PointwiseSimplex(),
        constraint_map=constraint_map,
        agent_operators=[agent_operator(a) for a in eco.agents],
        outer_map=outer_map,
        grid=eco.grid,
        goods=eco.goods,
        warm_starts=endowments,
        caps=tuple(caps),
    )


def survivability_check(eco: Economy) -> list:
    """Strictly positive endowment in every cell and good, per agent."""
    return [a.survivable for a in eco.agents]


def check_growth_condition(agent: Agent, samples: int = 200, seed: int = 0) -> CertReport:
    """Sampled check of the declared gradient growth bound on the cone.

    Magnitudes are drawn log-uniformly over several decades so families with
    superlinear gradients fail at large consumption, where they must.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    C, g = agent.utility.growth_constants()
    g = np.broadcast_to(np.asarray(g, dtype=float), (agent.endowment.grid.cells,))
    m = agent.endowment.components
    worst_margin, witness = np.inf, None
    for _ in range(samples):
        k = int(rng.integers(agent.endowment.grid.cells))
        scale = 10.0 ** rng.uniform(-2, 3)
        w = scale * np.abs(rng.normal(size=m))
        lhs = float(np.linalg.norm(agent.utility.gradient_at(k, w)))
        margin = C * float(np.linalg.norm(w)) + g[k] + 1e-9 - lhs
        if margin < worst_margin:
            worst_margin, witness = margin, (k, w)
    ok = worst_margin >= 0
    return CertReport(
        verdict=ok,
        residuals={"worst_margin": worst_margin},
        witness=None if ok else witness,
        tolerance=1e-9,
        samples_used=samples,
        seed=seed,
        name="growth-condition",
    )


def check_concavity(agent: Agent, samples: int = 200, seed: int = 0) -> CertReport:
    """Sampled midpoint-concavity check of the instantaneous utility."""
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    m = agent.endowment.components
    worst_margin, witness = np.inf, None
    for _ in range(samples):
        k = int(rng.integers(agent.endowment.grid.cells))
        scale = 10.0 ** rng.uniform(-1, 2)
        w1 = scale * np.abs(rng.normal(size=m))
        w2 = scale * np.abs(rng.normal(size=m))
        mid = agent.utility.value_at(k, 0.5 * (w1 + w2))
        avg = 0.5 * (agent.utility.value_at(k, w1) + agent.utility.value_at(k, w2))
        margin = mid - avg + 1e-10
        if margin < worst_margin:
            worst_margin, witness = margin, (k, w1, w2)
    ok = worst_margin >= 0
    return CertReport(
        verdict=ok,
        residuals={"worst_margin": worst_margin},
        witness=None if ok else witness,
        tolerance=1e-10,
        samples_used=samples,
        seed=seed,
        name="concavity",
    )
