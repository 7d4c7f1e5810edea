"""Equilibrium symmetries as tests (metamorphic testing: Chen, Cheung &
Yiu 1998).  Taking the goods, the agents or the cells of an economy in
reverse order takes its equilibrium price in that order too, and the
solver must reach it by the same iterations, so no reference solver is
needed.  Reversing the goods also reverses which cap columns bind, and
with it the order of the per-column cap searches."""

import numpy as np
import pytest

from corpus import CORPUS_SEEDS, make_random_economy
from qvex import (
    Agent,
    Economy,
    GridFunction,
    LogShift,
    QVIParams,
    Quadratic,
    assemble_qvi,
    default_caps,
    solve_qvi,
)

REVERSED = slice(None, None, -1)
ALL = slice(None)

#: relation: (the order of goods, cells and agents, the price transported)
RELATIONS = {
    "goods": ((REVERSED, ALL, ALL), lambda p: p[:, ::-1]),
    "agents": ((ALL, ALL, REVERSED), lambda p: p),
    "cells": ((ALL, REVERSED, ALL), lambda p: p[::-1]),
}


def _relabel(eco, goods, cells, agents):
    """`eco` with its goods, cells and agents taken in the given orders."""

    def curve(f):
        return GridFunction(f.grid, f.values[cells][:, goods])

    def family(u):
        weights = tuple(np.asarray(u.weights)[goods])
        if isinstance(u, Quadratic):
            return Quadratic(curve(u.bliss), weights)
        return LogShift(weights, u.shift, u.cells)

    agents = tuple(Agent(curve(a.endowment), family(a.utility)) for a in eco.agents[agents])
    return Economy(eco.grid, eco.goods, agents)


def _solve(eco, seed):
    return solve_qvi(assemble_qvi(eco, default_caps(eco, 1.1)), QVIParams(seed=seed))


@pytest.fixture(scope="module")
def corpus_solutions():
    out = {}
    for seed in CORPUS_SEEDS:
        eco = make_random_economy(seed)
        out[seed] = (eco, _solve(eco, seed))
    return out


@pytest.mark.parametrize("relation", RELATIONS)
def test_reversing_a_label_reverses_the_equilibrium_price(corpus_solutions, relation):
    order, transport = RELATIONS[relation]
    for seed, (eco, rep) in corpus_solutions.items():
        moved = _solve(_relabel(eco, *order), seed)
        assert moved.converged, seed
        assert moved.iterations == rep.iterations, seed
        gap = np.abs(moved.price.values - transport(rep.price.values)).max()
        assert gap <= 1e-12, (seed, gap)
