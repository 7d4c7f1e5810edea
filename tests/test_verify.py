import numpy as np
import pytest

import qvex
from corpus import make_planted_pair, make_random_economy
from oracles import per_sample_best_response
from qvex import (
    Agent,
    Ball,
    CapBox,
    Economy,
    GridFunction,
    LogShift,
    OperatorHandle,
    PointwiseSimplex,
    PriceCurve,
    QVIParams,
    QVIProblem,
    Quadratic,
    assemble_qvi,
    best_response_residual,
    budget_residuals,
    certify_equilibrium,
    coercivity_probe,
    default_caps,
    inner_product,
    make_grid,
    market_clearing_residual,
    pseudomonotonicity_probe,
    solve_qvi,
    walras_residual,
)

G = make_grid(1.0, 1)


def two_agent_economy():
    a1 = Agent(
        GridFunction.constant(G, [1.0, 0.2]),
        Quadratic(GridFunction.constant(G, [2.0, 1.0]), (1.0, 1.0)),
    )
    a2 = Agent(
        GridFunction.constant(G, [0.2, 1.0]),
        Quadratic(GridFunction.constant(G, [1.0, 2.0]), (1.0, 1.0)),
    )
    return Economy(G, 2, (a1, a2))


def test_market_clearing_examples():
    eco = two_agent_economy()
    at_endowment = [a.endowment for a in eco.agents]
    np.testing.assert_allclose(market_clearing_residual(eco, at_endowment), 0.0, atol=1e-15)
    half = [0.5 * a.endowment for a in eco.agents]
    assert np.all(market_clearing_residual(eco, half) < 0)
    bumped = [at_endowment[0].with_values(at_endowment[0].values + [0.3, 0.0]), at_endowment[1]]
    np.testing.assert_allclose(market_clearing_residual(eco, bumped), [0.3, 0.0], atol=1e-12)


def test_budget_residual_examples():
    eco = two_agent_economy()
    p = PriceCurve.uniform(G, 2)
    at_endowment = [a.endowment for a in eco.agents]
    np.testing.assert_allclose(budget_residuals(eco, p, at_endowment), 0.0, atol=1e-15)
    zeros = [GridFunction.zeros(G, 2) for _ in eco.agents]
    res = budget_residuals(eco, p, zeros)
    np.testing.assert_allclose(res, [-inner_product(p, a.endowment) for a in eco.agents])
    assert np.all(res <= 0)


def test_budget_residual_scales_with_price():
    # bilinearity: scaling the net trade scales the residual linearly
    eco = two_agent_economy()
    p = PriceCurve.uniform(G, 2)
    x1 = [a.endowment.with_values(a.endowment.values + 0.2) for a in eco.agents]
    x2 = [a.endowment.with_values(a.endowment.values + 0.4) for a in eco.agents]
    r1 = budget_residuals(eco, p, x1)
    r2 = budget_residuals(eco, p, x2)
    np.testing.assert_allclose(r2, 2.0 * r1, rtol=1e-12)


def test_walras_examples():
    eco = two_agent_economy()
    p = PriceCurve.uniform(G, 2)
    at_endowment = [a.endowment for a in eco.agents]
    assert walras_residual(eco, p, at_endowment) == pytest.approx(0.0, abs=1e-15)
    # satiated agent strictly inside the budget: aggregate value strictly negative
    g = make_grid(1.0, 1)
    rich = Agent(
        GridFunction.constant(g, [2.0, 2.0]),
        Quadratic(GridFunction.constant(g, [0.5, 0.5]), (1.0, 1.0)),
    )
    eco2 = Economy(g, 2, (rich, rich))
    bliss = [GridFunction.constant(g, [0.5, 0.5])] * 2
    assert walras_residual(eco2, PriceCurve.uniform(g, 2), bliss) < -1e-6


def test_best_response_zero_at_feasible_bliss():
    g = make_grid(1.0, 1)
    agent = Agent(
        GridFunction.constant(g, [2.0, 2.0]),
        Quadratic(GridFunction.constant(g, [0.5, 0.5]), (1.0, 1.0)),
    )
    eco = Economy(g, 2, (agent,))
    p = PriceCurve.uniform(g, 2)
    res = best_response_residual(eco, p, GridFunction.constant(g, [0.5, 0.5]), 0, seed=0)
    assert res <= 1e-9


def test_best_response_detects_suboptimal_plan():
    eco = two_agent_economy()
    p = PriceCurve.uniform(G, 2)
    # endowment is feasible but not optimal for agent 0 at uniform prices
    res = best_response_residual(eco, p, eco.agents[0].endowment, 0, samples=200, seed=0)
    assert res > 1e-3


def test_best_response_requires_feasibility():
    eco = two_agent_economy()
    p = PriceCurve.uniform(G, 2)
    beyond = GridFunction.constant(G, [5.0, 5.0])
    with pytest.raises(ValueError):
        best_response_residual(eco, p, beyond, 0)


def test_certify_accepts_solver_output(oracle_economy, oracle_problem, skewed_start):
    eco, _ = oracle_economy
    rep = solve_qvi(oracle_problem, QVIParams(start_price=skewed_start))
    cert = certify_equilibrium(eco, rep.price, rep.agent_allocations(), tol=1e-5, seed=0)
    assert cert.verdict
    assert set(cert.residuals) == {
        "price_simplex",
        "budget[0]",
        "budget[1]",
        "clearing[0]",
        "clearing[1]",
        "walras",
        "best_response[0]",
        "best_response[1]",
    }


def test_certify_rejects_endowment_with_wrong_prices():
    # x = e is feasible and clears, but gradients are misaligned with p
    eco = two_agent_economy()
    p = PriceCurve.uniform(G, 2)
    cert = certify_equilibrium(eco, p, [a.endowment for a in eco.agents], tol=1e-6, seed=0)
    assert not cert.verdict
    assert cert.residuals["best_response[0]"] > 1e-6


def test_certify_symmetric_no_trade_passes_tight():
    g = make_grid(1.0, 4)
    e = GridFunction.constant(g, [0.5, 0.5])
    spec = LogShift((1.0, 1.0), 1.0, 4)
    eco = Economy(g, 2, (Agent(e, spec), Agent(e, spec)))
    prob = assemble_qvi(eco, default_caps(eco, 1.1))
    rep = solve_qvi(prob, QVIParams())
    cert = certify_equilibrium(eco, rep.price, rep.agent_allocations(), tol=1e-8, seed=1)
    assert cert.verdict


def test_truncation_upgrade_capped_optima_pass_on_full_budget_set(
    oracle_economy, oracle_problem, skewed_start
):
    # inner solutions are computed on the capped budget set; since they sit
    # strictly inside the caps at equilibrium, optimality extends to the
    # uncapped budget set and the best-response check must accept them
    eco, caps = oracle_economy
    rep = solve_qvi(oracle_problem, QVIParams(start_price=skewed_start))
    assert rep.converged
    for i, block in enumerate(rep.agent_allocations()):
        for j in range(eco.goods):
            assert qvex.integrate_component(block, j) < caps[j] - 1e-6
        assert best_response_residual(eco, rep.price, block, i, seed=i) <= 1e-6


@pytest.mark.parametrize("samples", [0, -3])
def test_certify_rejects_a_sample_count_below_one(samples):
    eco = two_agent_economy()
    p = PriceCurve.uniform(G, 2)
    plans = [a.endowment for a in eco.agents]
    with pytest.raises(ValueError, match="at least one sample"):
        certify_equilibrium(eco, p, plans, samples=samples)
    with pytest.raises(ValueError, match="at least one sample"):
        best_response_residual(eco, p, plans[0], 0, samples=samples)


def _solved_corpus_pair(seed):
    eco = make_random_economy(seed)
    rep = solve_qvi(assemble_qvi(eco, default_caps(eco, 1.1)), QVIParams(seed=seed))
    assert rep.converged
    return eco, rep.price, rep.agent_allocations()


@pytest.mark.parametrize(
    "case",
    ["corpus[3]", "corpus[6]", "corpus[9]", "planted-plans", "planted-endowments"],
)
def test_certify_matches_per_sample_reference(monkeypatch, case):
    if case.startswith("corpus"):
        eco, p, x = _solved_corpus_pair(int(case[7:-1]))
    else:
        eco, p, plans, endowments = make_planted_pair(3, 2, 1024, seed=5)
        x = plans if case == "planted-plans" else endowments

    def certify():
        return certify_equilibrium(eco, p, x, tol=1e-6, samples=60, seed=11)

    batched = certify()
    monkeypatch.setattr(qvex.sets, "_SAMPLE_CHUNK", 1)
    assert certify().residuals == batched.residuals
    monkeypatch.setattr(qvex.verify, "best_response_residual", per_sample_best_response)
    reference = certify()

    assert batched.verdict == reference.verdict == (case != "planted-endowments")
    assert batched.residuals.keys() == reference.residuals.keys()
    for key, value in batched.residuals.items():
        assert abs(value - reference.residuals[key]) <= 1e-12, key


def test_clearing_walras_identity_when_budgets_bind(oracle_economy, oracle_problem, skewed_start):
    # sum_j integral of p_j * (aggregate net demand)_j equals the Walras sum
    eco, _ = oracle_economy
    rep = solve_qvi(oracle_problem, QVIParams(start_price=skewed_start))
    blocks = rep.agent_allocations()
    budgets = budget_residuals(eco, rep.price, blocks)
    assert np.abs(budgets).max() <= 1e-10
    net = sum(b.values - a.endowment.values for b, a in zip(blocks, eco.agents))
    lhs = float(eco.grid.dt * np.sum(rep.price.values * net))
    assert lhs == pytest.approx(walras_residual(eco, rep.price, blocks), abs=1e-10)


# --- probes ---


def test_pseudomonotonicity_passes_for_monotone_operators(oracle_problem):
    p = PriceCurve.uniform(G, 2)
    sets = oracle_problem.constraint_map(p)
    for op, s, w in zip(oracle_problem.agent_operators, sets, oracle_problem.warm_starts):
        rep = pseudomonotonicity_probe(op, s, w, pairs=200, seed=0, scale=2.0)
        assert rep.verdict


def test_pseudomonotonicity_passes_for_identity_and_rotation():
    ball = Ball(1.5)
    center = GridFunction.zeros(G, 2)
    ident = OperatorHandle(lambda x: x)
    rep = pseudomonotonicity_probe(ident, ball, center, pairs=300, seed=1, scale=2.0)
    assert rep.verdict
    # the rotation field is monotone (skew part drops out), hence pseudomonotone
    rot = OperatorHandle(lambda x: x.with_values(np.column_stack([-x.values[:, 1], x.values[:, 0]])))
    rep = pseudomonotonicity_probe(rot, ball, center, pairs=300, seed=1, scale=2.0)
    assert rep.verdict


def test_pseudomonotonicity_fails_on_repulsion_fixture():
    # F(x) = -x off the origin violates the implication; a frozen witness:
    # x=(2,1), y=(1,2): <F(x), y-x> = 1 >= 0 but <F(y), y-x> = -1 < 0
    x = np.array([2.0, 1.0])
    y = np.array([1.0, 2.0])
    assert (-x) @ (y - x) >= 0 and (-y) @ (y - x) < 0

    neg = OperatorHandle(lambda f: f.with_values(-f.values))
    box = Ball(1.0, center=(1.5, 1.5))  # off-origin region
    center = GridFunction.constant(G, [1.5, 1.5])
    rep = pseudomonotonicity_probe(neg, box, center, pairs=400, seed=2, scale=1.5)
    assert not rep.verdict
    assert rep.witness is not None
    wx, wy = rep.witness
    assert inner_product(neg(wx), wy - wx) >= 0.0
    assert inner_product(neg(wy), wy - wx) < -1e-9


def test_coercivity_vacuous_on_bounded_sets(oracle_economy, oracle_problem):
    eco, caps = oracle_economy
    p = PriceCurve.uniform(G, 2)
    # radius above any feasible norm: caps bound per-cell values by r_j / dt
    r_d = 1.0 + float(np.sqrt(eco.n_agents * np.sum(np.asarray(caps) ** 2) / eco.grid.dt))
    rep = coercivity_probe(oracle_problem, p, r_d, samples=32, seed=0)
    assert rep.verdict and rep.vacuous


def test_coercivity_passes_for_identity_on_cone():
    g = make_grid(1.0, 1)
    e = GridFunction.constant(g, [1.0])
    ident = OperatorHandle(lambda x: x, "monotone")
    prob = QVIProblem(
        price_set=PointwiseSimplex(),
        constraint_map=lambda p: [CapBox((np.inf,))],
        agent_operators=[ident],
        outer_map=lambda x: GridFunction(g, np.zeros((1, 1))),
        grid=g,
        goods=1,
        warm_starts=[e],
    )
    rep = coercivity_probe(prob, PriceCurve.uniform(g, 1), r_d=1.0, samples=64, seed=3)
    assert rep.verdict and not rep.vacuous


def test_coercivity_fails_on_outward_constant_field():
    # constant pull up the ray: no smaller-norm point ever satisfies the test
    g = make_grid(1.0, 1)
    e = GridFunction.constant(g, [1.0])
    outward = OperatorHandle(lambda x: x.with_values(np.full_like(x.values, -1.0)))
    prob = QVIProblem(
        price_set=PointwiseSimplex(),
        constraint_map=lambda p: [CapBox((np.inf,))],
        agent_operators=[outward],
        outer_map=lambda x: GridFunction(g, np.zeros((1, 1))),
        grid=g,
        goods=1,
        warm_starts=[e],
    )
    rep = coercivity_probe(prob, PriceCurve.uniform(g, 1), r_d=1.0, samples=64, seed=4)
    assert not rep.verdict
    assert rep.witness is not None


def test_certify_walras_reported_not_gated():
    # a satiated economy passes certification despite strictly negative walras
    g = make_grid(1.0, 1)
    rich = Agent(
        GridFunction.constant(g, [2.0, 2.0]),
        Quadratic(GridFunction.constant(g, [0.5, 0.5]), (1.0, 1.0)),
    )
    eco = Economy(g, 2, (rich, rich))
    prob = assemble_qvi(eco, default_caps(eco, 1.1))
    rep = solve_qvi(prob, QVIParams())
    assert rep.converged
    cert = certify_equilibrium(eco, rep.price, rep.agent_allocations(), tol=1e-6, seed=0)
    assert cert.verdict
    assert cert.residuals["walras"] < -1e-3
