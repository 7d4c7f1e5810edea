"""The public numeric arguments below are checked on entry: NaN, +-inf, 0,
-1 and `True` (for seeds, which may be 0: -1, 2.5, NaN and `True`; for
values of either sign: NaN, +-inf, `True` and a non-numeric string) each
raise a ValueError whose message starts with the argument's name (for
scenario files, its path), so no bad value runs silently."""

import re

import numpy as np
import pytest

from oracles import minty_certificate
from qvex import (
    Agent,
    Ball,
    CapBox,
    Economy,
    GridFunction,
    LogShift,
    OperatorHandle,
    PriceCurve,
    QVIParams,
    Quadratic,
    TimeGrid,
    assemble_qvi,
    best_response_residual,
    certify_equilibrium,
    check_concavity,
    check_growth_condition,
    coercivity_probe,
    default_caps,
    make_grid,
    pseudomonotonicity_probe,
    solve_qvi_truncated,
    solve_vi_extragradient,
    vi_residual,
)
from qvex.scenario import parse_scenario

G = make_grid(1.0, 2)
X = GridFunction.constant(G, [0.5, 0.5])
OP = OperatorHandle(lambda x: x - 0.3)
AGENTS = (
    Agent(
        GridFunction.constant(G, [1.0, 0.2]),
        Quadratic(GridFunction.constant(G, [2.0, 1.0]), (1.0, 1.0)),
    ),
    Agent(GridFunction.constant(G, [0.2, 1.0]), LogShift((1.0, 2.0), 1.0, 2)),
)
ECO = Economy(G, 2, AGENTS)
PROB = assemble_qvi(ECO, default_caps(ECO))
P = PriceCurve.uniform(G, 2)
PLANS = [a.endowment for a in AGENTS]

#: values every positive real and every count >= 1 rejects
BAD = [np.nan, np.inf, -np.inf, 0.0, -1, True]


def scenario(**changes):
    mapping = {
        "schema_version": 1,
        "grid": {"horizon": 1.0, "cells": 2},
        "goods": 1,
        "agents": [{"endowment": [1.0], "utility": {"family": "logshift", "weights": [1.0]}}],
    }
    for path, value in changes.items():
        *parents, key = path.split(".")
        node = mapping
        for name in parents:
            node = node.setdefault(name, {}) if not name.isdigit() else node[int(name)]
        node[key] = value
    return parse_scenario(mapping)


# (name the message starts with, call taking the bad value, bad values)
ENTRY_POINTS = [
    ("horizon", lambda v: TimeGrid(v, 2), BAD),
    ("cells", lambda v: TimeGrid(1.0, v), BAD),
    ("factor", lambda v: X.refine(v), BAD),
    ("radius", lambda v: Ball(v), BAD),
    # +inf is an uncapped good
    ("caps[0]", lambda v: CapBox((v,)), [v for v in BAD if v != np.inf]),
    ("gamma", lambda v: vi_residual(X, OP, Ball(1.0), v), BAD),
    ("step", lambda v: solve_vi_extragradient(OP, Ball(1.0), X, step=v), BAD),
    # the Minty oracle of the tests checks its arguments as the entry points do
    ("samples", lambda v: minty_certificate(X, OP, Ball(1.0), samples=v), BAD),
    # a slack of 0 asks for the exact Minty inequality
    ("slack", lambda v: minty_certificate(X, OP, Ball(1.0), slack=v), [v for v in BAD if v != 0]),
    ("weights[1]", lambda v: Quadratic(X, (1.0, v)), BAD),
    ("weights[0]", lambda v: LogShift((v,), 1.0, 2), BAD),
    ("shift", lambda v: LogShift((1.0,), v, 2), BAD),
    ("slack", lambda v: default_caps(ECO, v), BAD),
    ("samples", lambda v: check_growth_condition(AGENTS[0], samples=v), BAD),
    ("samples", lambda v: check_concavity(AGENTS[1], samples=v), BAD),
    ("samples", lambda v: best_response_residual(ECO, P, PLANS[0], 0, samples=v), BAD),
    ("tol", lambda v: certify_equilibrium(ECO, P, PLANS, tol=v), BAD),
    ("samples", lambda v: certify_equilibrium(ECO, P, PLANS, samples=v), BAD),
    ("r_d", lambda v: coercivity_probe(PROB, P, v), BAD),
    ("samples", lambda v: coercivity_probe(PROB, P, 1.0, samples=v), BAD),
    ("pairs", lambda v: pseudomonotonicity_probe(OP, Ball(1.0), X, pairs=v), BAD),
    ("scale", lambda v: pseudomonotonicity_probe(OP, Ball(1.0), X, scale=v), BAD),
    ("radii[0]", lambda v: solve_qvi_truncated(PROB, [v]), BAD),
    ("outer_tol", lambda v: QVIParams(outer_tol=v), BAD),
    ("max_outer", lambda v: QVIParams(max_outer=v), BAD),
    ("scenario.grid.horizon", lambda v: scenario(**{"grid.horizon": v}), BAD),
    ("scenario.grid.cells", lambda v: scenario(**{"grid.cells": v}), BAD),
    ("scenario.goods", lambda v: scenario(goods=v), BAD),
    ("scenario.cap_slack", lambda v: scenario(cap_slack=v), BAD),
    (
        "scenario.agents[0].utility.weights[0]",
        lambda v: scenario(**{"agents.0.utility.weights": [v]}),
        BAD,
    ),
    ("scenario.agents[0].utility.shift", lambda v: scenario(**{"agents.0.utility.shift": v}), BAD),
    ("scenario.solver.outer_tol", lambda v: scenario(**{"solver.outer_tol": v}), BAD),
    (
        "scenario.solver.radius_schedule[0]",
        lambda v: scenario(**{"solver.radius_schedule": [v]}),
        BAD,
    ),
]


@pytest.mark.parametrize(
    "name, call, value",
    [(name, call, v) for name, call, values in ENTRY_POINTS for v in values],
    ids=[f"{name}={v!r}" for name, _, values in ENTRY_POINTS for v in values],
)
def test_every_numeric_argument_is_checked_by_name(name, call, value):
    with pytest.raises(ValueError, match=f"^{re.escape(name)}: "):
        call(value)


#: values every seed rejects: seeds are integers >= 0
BAD_SEEDS = [-1, 2.5, np.nan, True]

# the extragradient's limits, and the seed of every sampled check
LIMITS_AND_SEEDS = [
    ("tol", lambda v: solve_vi_extragradient(OP, Ball(1.0), X, tol=v), BAD),
    ("max_iter", lambda v: solve_vi_extragradient(OP, Ball(1.0), X, max_iter=v), [*BAD, 2.5]),
    ("seed", lambda v: minty_certificate(X, OP, Ball(1.0), seed=v), BAD_SEEDS),
    ("seed", lambda v: pseudomonotonicity_probe(OP, Ball(1.0), X, seed=v), BAD_SEEDS),
    ("seed", lambda v: coercivity_probe(PROB, P, 1.0, seed=v), BAD_SEEDS),
    ("seed", lambda v: check_growth_condition(AGENTS[0], seed=v), BAD_SEEDS),
    ("seed", lambda v: check_concavity(AGENTS[1], seed=v), BAD_SEEDS),
    ("seed", lambda v: best_response_residual(ECO, P, PLANS[0], 0, seed=v), BAD_SEEDS),
]


@pytest.mark.parametrize(
    "name, call, value",
    [(name, call, v) for name, call, values in LIMITS_AND_SEEDS for v in values],
    ids=[f"{name}={v!r}" for name, _, values in LIMITS_AND_SEEDS for v in values],
)
def test_limits_and_seeds_are_checked_by_name(name, call, value):
    with pytest.raises(ValueError, match=f"^{re.escape(name)}: "):
        call(value)


#: values every real of either sign rejects
BAD_REALS = [np.nan, np.inf, -np.inf, True, "abc"]


def endowment(curve):
    return scenario(**{"agents.0.endowment": [curve]})


CURVE = "scenario.agents[0].endowment[0]"


def curve_row(name, **curve):
    """The row for one field of a curve whose other fields are `curve`."""
    return (f"{CURVE}.{name}", lambda v: endowment({**curve, name: v}), BAD_REALS)


# values of either sign: ball centers and every curve field
SIGNED = [
    ("center[0]", lambda v: Ball(1.0, center=(v,)), BAD_REALS),
    ("center[1]", lambda v: Ball(1.0, center=(0.0, v)), BAD_REALS),
    curve_row("level", kind="constant"),
    # a bare number is a constant curve; here the second good's
    (
        "scenario.agents[0].endowment[1].level",
        lambda v: scenario(
            goods=2, **{"agents.0.endowment": [1.0, v], "agents.0.utility.weights": [1, 1]}
        ),
        [np.nan, np.inf, -np.inf],
    ),
    curve_row("start", kind="linear", end=1),
    curve_row("end", kind="linear", start=1),
    curve_row("base", kind="sinusoid", amplitude=0),
    curve_row("amplitude", kind="sinusoid", base=1),
    curve_row("frequency", kind="sinusoid", base=1, amplitude=0),
    curve_row("phase", kind="sinusoid", base=1, amplitude=0),
]


@pytest.mark.parametrize(
    "name, call, value",
    [(name, call, v) for name, call, values in SIGNED for v in values],
    ids=[f"{name}={v!r}" for name, _, values in SIGNED for v in values],
)
def test_values_of_either_sign_are_checked_by_name(name, call, value):
    with pytest.raises(ValueError, match=f"^{re.escape(name)}: "):
        call(value)


def test_the_table_calls_pass_on_good_values():
    # each row rejects only its bad value: the same calls run on good ones
    assert TimeGrid(1, np.int64(2)) == G
    assert X.refine(2).grid.cells == 4
    assert CapBox((np.inf, 1)).caps == (np.inf, 1.0)
    assert minty_certificate(GridFunction.constant(G, [0.3, 0.3]), OP, Ball(1.0), slack=0).verdict
    assert certify_equilibrium(ECO, P, PLANS, tol=1.0, samples=1).samples_used == 1
    assert scenario(**{"solver.radius_schedule": [1, 2.0]}).radius_schedule == (1.0, 2.0)
    assert solve_vi_extragradient(OP, Ball(1.0), X, tol=1.0, max_iter=1).iterations == 0
    assert Ball(1.0, center=(-0.5, np.int64(2))).center == (-0.5, 2.0)
    scn = endowment({"kind": "linear", "start": "2e-1", "end": -1})
    assert scn.agents[0]["endowment"][0] == {"kind": "linear", "start": 0.2, "end": -1.0}
    assert check_concavity(AGENTS[1], samples=1, seed=np.int64(0)).samples_used == 1
