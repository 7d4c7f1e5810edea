"""Randomized desk-scale economies shared by the solver and acceptance tests.

Seeds 0..19 map to economies with n <= 4 agents, m <= 3 goods and up to 16
cells, mixing both utility families and constant/sinusoid endowments.  All
endowments are strictly positive (survivable), bliss points sit above the
endowment range so quadratic agents behave monotonically near equilibrium.
"""

from __future__ import annotations

import numpy as np

from qvex import Agent, Economy, GridFunction, LogShift, Quadratic, TimeGrid, make_grid

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
