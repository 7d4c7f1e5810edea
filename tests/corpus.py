"""Randomized desk-scale economies shared by the solver and acceptance tests.

Seeds 0..19 map to economies with n <= 4 agents, m <= 3 goods and up to 16
cells, mixing both utility families and constant/sinusoid endowments.  All
endowments are strictly positive (survivable), bliss points sit above the
endowment range so quadratic agents behave monotonically near equilibrium.
`make_planted_pair` builds economies of any size whose equilibrium is known
by construction, for certification without a solve.
"""

from __future__ import annotations

import numpy as np

from qvex import Agent, Economy, GridFunction, LogShift, PriceCurve, Quadratic, TimeGrid, make_grid

CORPUS_SEEDS = tuple(range(20))
CELL_CHOICES = (1, 2, 4, 8, 16)


def _random_agent(rng, grid: TimeGrid, m: int, quadratic: bool) -> Agent:
    """One agent of the corpus recipe: positive endowment, either family."""
    cells, horizon = grid.cells, grid.horizon
    t = grid.midpoints()
    base = 0.4 + 1.2 * rng.random(m)
    if rng.random() < 0.5:
        amp = 0.5 * base * rng.random(m)
        phase = 2 * np.pi * rng.random(m)
        values = base[None, :] + amp[None, :] * np.sin(
            2 * np.pi * t[:, None] / horizon + phase[None, :]
        )
    else:
        values = np.tile(base, (cells, 1))
    endowment = GridFunction(grid, np.maximum(values, 0.05))

    if quadratic:
        bliss_level = endowment.values.max() * (2.0 + rng.random(m))
        bliss = GridFunction(grid, np.tile(bliss_level, (cells, 1)))
        spec = Quadratic(bliss, tuple(0.5 + rng.random(m)))
    else:
        spec = LogShift(tuple(0.5 + 1.5 * rng.random(m)), 1.0, cells)
    return Agent(endowment, spec)


def make_random_economy(seed: int) -> Economy:
    rng = np.random.default_rng(1000 + seed)
    n = 1 + seed % 4
    m = 1 + (seed // 4) % 3
    cells = CELL_CHOICES[seed % len(CELL_CHOICES)]
    horizon = float(rng.choice([1.0, 2.0]))
    grid = make_grid(horizon, cells)
    agents = tuple(_random_agent(rng, grid, m, (seed + i) % 2 == 0) for i in range(n))
    return Economy(grid, m, agents)


def make_agent_ladder_economy(n: int, goods: int = 2, cells: int = 16) -> Economy:
    """n agents of the corpus recipe on [0, 1]; agent i is quadratic when i is even."""
    rng = np.random.default_rng(1000)
    grid = make_grid(1.0, cells)
    agents = tuple(_random_agent(rng, grid, goods, i % 2 == 0) for i in range(n))
    return Economy(grid, goods, agents)


def make_planted_pair(n: int, goods: int, cells: int, seed: int = 0):
    """An economy with a planted equilibrium (p, x) and a failing candidate.

    Every plan is interior with grad u_i(x_i) = lam_i p for some lam_i > 0:
    quadratic agents (even i) get the bliss curve q x_i + lam_i p, LogShift
    agents the plan x_i = a / (lam_i p) - 1 >= 1.  Endowments are
    e_i = x_i + c_i v, with v orthogonal to p in every cell and the c_i
    summing to 0, so budgets bind and markets clear at x and at e alike,
    but e is optimal for no agent.  Returns (economy, price, plans,
    endowments).
    """
    rng = np.random.default_rng(seed)
    grid = make_grid(1.0, cells)
    p = rng.uniform(0.5, 1.5, (cells, goods))
    p /= p.sum(axis=1, keepdims=True)
    w = rng.normal(size=(cells, goods))
    v = w - (np.sum(w * p, axis=1) / np.sum(p * p, axis=1))[:, None] * p
    v /= np.abs(v).max()
    c = rng.uniform(0.5, 1.0, n) * (-1.0) ** np.arange(n)
    c -= c.mean()
    plans, specs = [], []
    for i in range(n):
        if i % 2 == 0:
            x = rng.uniform(0.5, 1.5, (cells, goods))
            q = rng.uniform(0.5, 1.5, goods)
            specs.append(Quadratic(GridFunction(grid, q * x + rng.uniform(0.5, 2.0) * p), tuple(q)))
        else:
            a = rng.uniform(0.5, 2.0, goods)
            x = a / (0.5 * np.min(a / p) * p) - 1.0
            specs.append(LogShift(tuple(a), 1.0, cells))
        plans.append(x)
    # |v| <= 1, so every endowment keeps at least half of its plan's smallest entry
    kappa = 0.5 * min(x.min() for x in plans) / np.abs(c).max()
    agents = tuple(
        Agent(GridFunction(grid, x + kappa * c_i * v), s) for x, c_i, s in zip(plans, c, specs)
    )
    return (
        Economy(grid, goods, agents),
        PriceCurve(grid, p),
        [GridFunction(grid, x) for x in plans],
        [a.endowment for a in agents],
    )
