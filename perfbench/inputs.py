"""Seeded generators of the benchmark workloads' inputs.

* `corpus_economy(seed, k)` is the benchmark's own copy of the randomized
  desk-scale corpus recipe of the test suite.  Item k always has the same
  shape (agents, goods, cells); its values come from a generator seeded
  with 1000 * (seed + 1) + k, so seed 0 reproduces the test corpus bit for
  bit and edits to the tests never move the benchmark.
* `planted_pair(rng, n, m, cells, k)` builds an economy together with an
  equilibrium pair (p, x) that holds by construction, plus endowments that
  are budget-neutral but not optimal, for certification-only runs.
"""

from __future__ import annotations

import numpy as np

from qvex import Agent, Economy, GridFunction, LogShift, PriceCurve, Quadratic, make_grid

CORPUS_SIZE = 20
CELL_CHOICES = (1, 2, 4, 8, 16)


def corpus_shape(k: int) -> tuple:
    """(agents, goods, cells) of corpus item k; independent of the seed."""
    return 1 + k % 4, 1 + (k // 4) % 3, CELL_CHOICES[k % len(CELL_CHOICES)]


def corpus_economy(seed: int, k: int) -> Economy:
    """Corpus item k with values drawn for workload seed `seed`."""
    if not 0 <= k < 1000:
        raise ValueError(f"corpus item index out of range: {k}")
    rng = np.random.default_rng(1000 * (seed + 1) + k)
    n, m, cells = corpus_shape(k)
    horizon = float(rng.choice([1.0, 2.0]))
    grid = make_grid(horizon, cells)
    t = grid.midpoints()

    agents = []
    for i in range(n):
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

        if (k + i) % 2 == 0:
            bliss_level = endowment.values.max() * (2.0 + rng.random(m))
            bliss = GridFunction(grid, np.tile(bliss_level, (cells, 1)))
            spec = Quadratic(bliss, tuple(0.5 + rng.random(m)))
        else:
            spec = LogShift(tuple(0.5 + 1.5 * rng.random(m)), 1.0, cells)
        agents.append(Agent(endowment, spec))
    return Economy(grid, m, tuple(agents))


def _smooth_rows(rng, t, horizon, m, lo, hi):
    """Positive (cells, m) curves lo..hi with one random sinusoid per column."""
    level = rng.uniform(lo, hi, m)
    amp = rng.uniform(0.0, 0.3, m) * level
    phase = rng.uniform(0.0, 2 * np.pi, m)
    return level + amp * np.sin(2 * np.pi * t[:, None] / horizon + phase)


def planted_pair(rng: np.random.Generator, n: int, m: int, cells: int, k: int = 0):
    """An economy with a planted equilibrium (p, x) and a failing candidate.

    Prices are interior to every cell's simplex and every plan is interior,
    with grad u_i(x_i) = lam_i p for a positive lam_i:

    * Quadratic agents: x_i is drawn, and the bliss curve is set to
      weights * x_i + lam_i p.
    * LogShift agents: x_i = a / (lam_i p) - shift, with lam_i small enough
      that every entry is at least 1.

    Endowments are e_i = x_i + delta_i(t) v(t), where v(t) is orthogonal to
    p(t) in every cell and sum_i delta_i = 0.  Then every budget binds and
    every market clears, so (p, x) is an equilibrium, while (p, e) keeps the
    same budgets and clearing but is not optimal for any agent.

    Returns (economy, price, plans, endowments).
    """
    if n < 2 or m < 2:
        raise ValueError("a planted pair needs at least two agents and two goods")
    horizon = float(rng.choice([1.0, 2.0]))
    grid = make_grid(horizon, cells)
    t = grid.midpoints()

    raw = _smooth_rows(rng, t, horizon, m, 0.5, 1.5)
    p = raw / raw.sum(axis=1, keepdims=True)

    w = rng.normal(size=(cells, m))
    v = w - (np.sum(w * p, axis=1) / np.sum(p * p, axis=1))[:, None] * p
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    # project once more so that rounding from the scaling leaves no p-component
    v -= (np.sum(v * p, axis=1) / np.sum(p * p, axis=1))[:, None] * p

    while True:
        c = rng.uniform(0.5, 1.0, n) * np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
        c -= c.mean()
        if np.min(np.abs(c)) >= 0.1 * np.max(np.abs(c)):
            break
    shape = 1.0 + 0.5 * np.sin(2 * np.pi * t / horizon + rng.uniform(0, 2 * np.pi))

    plans, specs = [], []
    for i in range(n):
        if (k + i) % 2 == 0:
            x = _smooth_rows(rng, t, horizon, m, 0.5, 1.5)
            q = rng.uniform(0.5, 1.5, m)
            lam = rng.uniform(0.5, 2.0)
            specs.append(Quadratic(GridFunction(grid, q * x + lam * p), tuple(q)))
        else:
            a = rng.uniform(0.5, 2.0, m)
            lam = 0.5 * float(np.min(a / p))
            x = a / (lam * p) - 1.0
            specs.append(LogShift(tuple(a), 1.0, cells))
        plans.append(x)

    # the largest perturbation keeps every endowment above half its plan
    reach = np.abs(np.outer(c, shape)[:, :, None] * v[None, :, :])
    kappa = 0.5 * float(np.min(np.stack(plans) / np.maximum(reach, 1e-300)))
    kappa = min(kappa, 1.0)
    endowments = [x + kappa * c[i] * shape[:, None] * v for i, x in enumerate(plans)]

    agents = tuple(Agent(GridFunction(grid, e), s) for e, s in zip(endowments, specs))
    eco = Economy(grid, m, agents)
    price = PriceCurve(grid, p)
    return (
        eco,
        price,
        [GridFunction(grid, x) for x in plans],
        [a.endowment for a in agents],
    )
