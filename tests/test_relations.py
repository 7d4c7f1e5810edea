"""Equilibrium symmetries as tests (metamorphic testing: Chen, Cheung &
Yiu 1998).  Taking the goods, the agents or the cells of an economy in
reverse order takes its equilibrium price in that order too, and the
solver must reach it by the same iterations, so no reference solver is
needed.  Reversing the goods also reverses which cap columns bind, and
with it the order of the per-column cap searches.

Splitting every cell in two with the same data changes no step function,
so the solve must repeat itself cell for cell: it pins every use of `dt`.
Replicating every agent (Debreu & Scarf 1963) leaves each agent's share
of the market as it was, so the original pair, each plan taken twice, is
an equilibrium of the replicated economy."""

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
    TimeGrid,
    assemble_qvi,
    certify_equilibrium,
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


def _split(eco):
    """`eco` with every cell split in two, on the same horizon."""
    grid = TimeGrid(eco.grid.horizon, 2 * eco.grid.cells)

    def family(u):
        if isinstance(u, Quadratic):
            return Quadratic(u.bliss.refine(2), u.weights)
        return LogShift(u.weights, u.shift, 2 * u.cells)

    agents = tuple(Agent(a.endowment.refine(2), family(a.utility)) for a in eco.agents)
    return Economy(grid, eco.goods, agents)


def test_splitting_every_cell_repeats_the_equilibrium_price(corpus_solutions):
    for seed, (eco, rep) in corpus_solutions.items():
        split = _solve(_split(eco), seed)
        assert split.converged, seed
        assert split.iterations == rep.iterations, seed
        gap = np.abs(split.price.values - np.repeat(rep.price.values, 2, axis=0)).max()
        assert gap <= 1e-12, (seed, gap)


def test_replicating_every_agent_keeps_the_equilibrium(corpus_solutions):
    # the solver may take another path to the replicated price, so the
    # iteration counts are not compared
    for seed, (eco, rep) in corpus_solutions.items():
        twice = Economy(eco.grid, eco.goods, eco.agents * 2)
        cert = certify_equilibrium(twice, rep.price, rep.agent_allocations() * 2, tol=1e-6)
        assert cert.verdict, (seed, cert.residuals)
        moved = _solve(twice, seed)
        assert moved.converged, seed
        gap = np.abs(moved.price.values - rep.price.values).max()
        assert gap <= 1e-7, (seed, gap)
