import logging
from dataclasses import replace

import numpy as np
import pytest

import qvex
from corpus import make_agent_ladder_economy, make_random_economy
from qvex import (
    Agent,
    Economy,
    GridFunction,
    LogShift,
    OperatorHandle,
    PointwiseSimplex,
    PriceCurve,
    QVIParams,
    QVIProblem,
    Quadratic,
    agent_best_responses,
    assemble_qvi,
    certify_equilibrium,
    check_truncation_interior,
    default_caps,
    inner_product,
    make_grid,
    norm,
    outer_operator,
    solve_qvi,
    solve_qvi_product,
    solve_qvi_truncated,
    split_components,
    stack_components,
    vi_residual,
)
from qvex.errors import InnerSolveFailure, NonConvergence, ShapeMismatch
from qvex.qvi import RESIDUAL_GAUGE


def symmetric_economy(cells=4, family="logshift"):
    g = make_grid(1.0, cells)
    e = GridFunction.constant(g, [0.5, 0.5])
    if family == "logshift":
        spec = LogShift((1.0, 1.0), 1.0, cells)
    else:
        spec = Quadratic(GridFunction.constant(g, [2.0, 2.0]), (1.0, 1.0))
    return Economy(g, 2, (Agent(e, spec), Agent(e, spec)))


def bliss_inside_economy():
    # bliss points strictly affordable: the unconstrained maximizer is feasible
    g = make_grid(1.0, 1)
    e = GridFunction.constant(g, [2.0, 2.0])
    spec = Quadratic(GridFunction.constant(g, [0.5, 0.5]), (1.0, 1.0))
    return Economy(g, 2, (Agent(e, spec), Agent(e, spec)))


# --- best responses (the inner solution map) ---


def test_best_response_hits_feasible_bliss_point():
    eco = bliss_inside_economy()
    prob = assemble_qvi(eco, default_caps(eco, 1.1))
    d = PriceCurve.uniform(eco.grid, 2)
    x = agent_best_responses(d, prob, QVIParams())
    for block in split_components(x, 2):
        np.testing.assert_allclose(block.values, [[0.5, 0.5]], atol=1e-7)


def test_best_response_no_trade_by_symmetry():
    eco = symmetric_economy()
    prob = assemble_qvi(eco, default_caps(eco, 1.1))
    d = PriceCurve.uniform(eco.grid, 2)
    params = QVIParams()
    x = agent_best_responses(d, prob, params)
    sets = prob.constraint_map(d)
    for block, op, s in zip(split_components(x, 2), prob.agent_operators, sets):
        np.testing.assert_allclose(block.values, 0.5, atol=1e-6)
        assert vi_residual(block, op, s, 1.0) <= params.inner_tol


def test_best_response_rejects_infeasible_price():
    eco = symmetric_economy()
    prob = assemble_qvi(eco, default_caps(eco, 1.1))
    bad = GridFunction.constant(eco.grid, [0.9, 0.9])
    with pytest.raises(ValueError):
        agent_best_responses(bad, prob, QVIParams())  # type: ignore[arg-type]


def test_best_response_inner_failure_lists_agents(monkeypatch):
    # bliss away from the warm start: two extragradient iterations cannot
    # reach tolerance (without the exact demand map they solve the inner VIs)
    monkeypatch.setattr(qvex.qvi, "MAX_INNER", 2)
    eco = bliss_inside_economy()
    prob = replace(assemble_qvi(eco, default_caps(eco, 1.1)), demand=None)
    d = PriceCurve.uniform(eco.grid, 2)
    with pytest.raises(InnerSolveFailure) as err:
        agent_best_responses(d, prob, QVIParams(inner_tol=1e-12))
    assert err.value.failed_agents


def test_outer_operator_zero_at_no_trade():
    eco = symmetric_economy()
    prob = assemble_qvi(eco, default_caps(eco, 1.1))
    h = outer_operator(PriceCurve.uniform(eco.grid, 2), prob, QVIParams())
    assert norm(h) <= 1e-6


def test_outer_map_definition_single_agent():
    g = make_grid(1.0, 1)
    eco = Economy(g, 1, (Agent(GridFunction.constant(g, [1.0]), LogShift((1.0,), 1.0, 1)),))
    prob = assemble_qvi(eco, default_caps(eco, 1.1))
    x = GridFunction.constant(g, [0.4])  # fixed allocation below endowment
    np.testing.assert_allclose(prob.outer_map(x).values, [[0.6]], atol=1e-15)


# --- two-level solver ---


def test_solve_no_trade_fixed_point():
    eco = symmetric_economy()
    prob = assemble_qvi(eco, default_caps(eco, 1.1))
    rep = solve_qvi(prob, QVIParams())
    assert rep.converged
    assert rep.outer_residual <= 1e-8
    assert rep.inner_residuals.max() <= 1e-8
    np.testing.assert_allclose(rep.price.values, 0.5, atol=1e-8)
    for block, agent in zip(rep.agent_allocations(), eco.agents):
        np.testing.assert_allclose(block.values, agent.endowment.values, atol=1e-8)


def test_solve_oracle_instance_against_kkt_oracle(oracle_problem, skewed_start):
    from oracles import cd_quad_oracle

    rep = solve_qvi(oracle_problem, QVIParams(start_price=skewed_start))
    assert rep.converged
    price, demands = cd_quad_oracle(
        [np.array([2.0, 1.0]), np.array([1.0, 2.0])],
        [np.ones(2), np.ones(2)],
        [np.array([1.0, 0.2]), np.array([0.2, 1.0])],
        caps=np.array([1.32, 1.32]),
        dt=1.0,
    )
    assert np.abs(rep.price.values[0] - price).max() <= 1e-4
    for block, d in zip(rep.agent_allocations(), demands):
        assert np.abs(block.values[0] - d).max() <= 1e-4


def test_solve_single_agent_no_trade_constant_endowment():
    g = make_grid(1.0, 1)
    eco = Economy(g, 2, (Agent(GridFunction.constant(g, [1.0, 2.0]), LogShift((1.0, 1.0), 1.0, 1)),))
    prob = assemble_qvi(eco, default_caps(eco, 1.1))
    rep = solve_qvi(prob, QVIParams())
    assert rep.converged
    # market clearing forces consuming the endowment; prices align with the
    # gradient there: p ~ (1/2, 1/3) normalized = (0.6, 0.4) by direct KKT
    np.testing.assert_allclose(rep.allocation.values, [[1.0, 2.0]], atol=1e-6)
    np.testing.assert_allclose(rep.price.values, [[0.6, 0.4]], atol=1e-6)


def test_converged_report_recertifies_independently(oracle_problem, skewed_start):
    params = QVIParams(start_price=skewed_start)
    rep = solve_qvi(oracle_problem, params)
    assert rep.converged
    sets = oracle_problem.constraint_map(rep.price)
    blocks = rep.agent_allocations()
    h = oracle_problem.outer_map(rep.allocation)
    proj = qvex.project(rep.price - RESIDUAL_GAUGE * h, PointwiseSimplex())
    assert norm(rep.price - proj) <= params.outer_tol
    for block, op, s in zip(blocks, oracle_problem.agent_operators, sets):
        assert vi_residual(block, op, s, RESIDUAL_GAUGE) <= params.inner_tol


def test_theorem_reduction_combined_inequality(oracle_problem, skewed_start):
    # small outer and inner residuals imply the combined two-block inequality
    # <f(x), d - d*> + <F(x), z - x> >= -2e-8 over sampled (d, z) pairs
    params = QVIParams(start_price=skewed_start, outer_tol=1e-9, inner_tol=1e-9)
    rep = solve_qvi(oracle_problem, params)
    assert rep.converged
    assert rep.outer_residual <= 1e-8
    assert rep.inner_residuals.max() <= 1e-8

    rng = np.random.default_rng(123)
    grid = oracle_problem.grid
    sets = oracle_problem.constraint_map(rep.price)
    blocks = rep.agent_allocations()
    fx = oracle_problem.outer_map(rep.allocation)
    fvals = [op(b) for op, b in zip(oracle_problem.agent_operators, blocks)]

    worst = np.inf
    for _ in range(1000):
        d = qvex.project(
            GridFunction(grid, rng.normal(0.5, 0.5, size=(grid.cells, 2))), PointwiseSimplex()
        )
        total = inner_product(fx, d - rep.price)
        for block, f, s in zip(blocks, fvals, sets):
            z = qvex.sample_feasible(s, block, 1.0, rng, 1)[0]
            total += inner_product(f, z - block)
        worst = min(worst, total)
    assert worst >= -2e-8


def test_solver_determinism(oracle_problem, skewed_start):
    rep1 = solve_qvi(oracle_problem, QVIParams(start_price=skewed_start))
    rep2 = solve_qvi(oracle_problem, QVIParams(start_price=skewed_start))
    assert rep1.iterations == rep2.iterations
    np.testing.assert_array_equal(rep1.price.values, rep2.price.values)
    np.testing.assert_array_equal(rep1.allocation.values, rep2.allocation.values)


def test_inner_failure_returns_a_pair_instead_of_raising(
    oracle_problem, skewed_start, monkeypatch
):
    # without the exact demand map the inner VIs run on extragradient, and
    # two of its iterations cannot certify even the first, loose inner solve
    oracle_problem = replace(oracle_problem, demand=None)
    monkeypatch.setattr(qvex.qvi, "MAX_INNER", 2)
    rep = solve_qvi(oracle_problem, QVIParams(start_price=skewed_start))
    assert not rep.converged and rep.iterations == 1
    assert "failed to certify" in rep.message and "agents [0]" in rep.message
    assert rep.outer_residual == rep.residual_history[0]

    # loose early inner solves certify; the tight ones near the fixed point
    # fail, since 1e-17 is below what double precision can certify
    monkeypatch.setattr(qvex.qvi, "MAX_INNER", 100)
    params = QVIParams(start_price=skewed_start, inner_tol=1e-17)
    rep = solve_qvi(oracle_problem, params)
    assert not rep.converged and rep.iterations > 1
    assert "failed to certify at tol=1e-17" in rep.message
    # the best certified pair, not the failing iterate
    assert rep.outer_residual == rep.residual_history[:-1].min()


BAD_PARAMS = [
    ("outer_tol", float("nan")),
    ("outer_tol", -1e-7),
    ("outer_tol", 0.0),
    ("outer_tol", True),
    ("inner_tol", float("inf")),
    ("inner_tol", "1e-8"),
    ("inner_tol", False),
    ("max_outer", 0),
    ("max_outer", 2.0),
    ("max_outer", True),
    ("seed", -1),
    ("seed", 1.5),
    ("seed", True),
]


@pytest.mark.parametrize("name, value", BAD_PARAMS, ids=[f"{n}={v!r}" for n, v in BAD_PARAMS])
def test_params_reject_each_bad_field_on_construction_and_replace(name, value):
    with pytest.raises(ValueError, match=f"^{name}: "):
        QVIParams(**{name: value})
    with pytest.raises(ValueError, match=f"^{name}: "):
        replace(QVIParams(), **{name: value})


def test_params_are_frozen():
    with pytest.raises(AttributeError):
        QVIParams().seed = 3


def test_nonconvergence_reports_best_iterate(oracle_problem, skewed_start):
    rep = solve_qvi(oracle_problem, QVIParams(start_price=skewed_start, max_outer=3))
    assert not rep.converged
    assert rep.message
    assert rep.outer_residual == min(rep.residual_history)


def test_nonconvergence_names_a_price_step_that_never_moved():
    # satiated below its endowment, the agent's demand ignores the price, so
    # excess demand never changes and the step rule is never applied
    g = make_grid(1.0, 1)
    bliss = GridFunction.constant(g, [5e-4, 5e-4])
    eco = Economy(g, 2, (Agent(GridFunction.constant(g, [1e-3, 2e-3]), Quadratic(bliss, (1, 1))),))
    rep = solve_qvi(assemble_qvi(eco, default_caps(eco, 1.1)), QVIParams(max_outer=50))
    assert not rep.converged
    assert rep.message.endswith(
        "final step 5.000e-01): price step never moved: excess demand did not change"
    )


def test_nonconvergence_names_a_collapsed_price_step(oracle_problem, skewed_start):
    # excess demand scaled by 1e12 drives the step rule 1e9-fold below its start
    stiff = replace(oracle_problem, outer_map=lambda x: 1e12 * oracle_problem.outer_map(x))
    rep = solve_qvi(stiff, QVIParams(start_price=skewed_start, max_outer=5))
    assert not rep.converged
    assert rep.message.endswith("): price step collapsed to at most 1e-9 times its start 0.5")


@pytest.mark.parametrize("max_outer", [3, 2000])
def test_each_outer_iteration_logs_its_step(oracle_problem, skewed_start, caplog, max_outer):
    params = QVIParams(start_price=skewed_start, max_outer=max_outer)
    with caplog.at_level(logging.DEBUG, logger="qvex.qvi"):
        rep = solve_qvi(oracle_problem, params)
    records = [r for r in caplog.records if r.name == "qvex.qvi"]
    # args: k, outer residual, step, effective inner tolerance, inner work
    assert [r.args[0] for r in records] == list(range(rep.iterations))
    assert [r.args[1] for r in records] == list(rep.residual_history)
    assert all(r.args[2] > 0 and "step" in r.getMessage() for r in records)
    assert all(r.args[3] >= params.inner_tol and r.args[4] >= 0 for r in records)
    assert rep.converged == (max_outer == 2000)
    if not rep.converged:
        assert f"final step {records[-1].args[2]:.3e}" in rep.message


def test_many_agents_converge_in_few_outer_iterations():
    # excess demand sums all 16 agents' inner errors: with an inner tolerance
    # that ignored the agent count the residual hovered for 92 iterations
    eco = make_agent_ladder_economy(16)
    rep = solve_qvi(assemble_qvi(eco, default_caps(eco, 1.1)), QVIParams())
    assert rep.converged and rep.iterations <= 40
    cert = certify_equilibrium(eco, rep.price, rep.agent_allocations(), tol=1e-6, seed=0)
    assert cert.verdict, cert.residuals


def test_demand_failure_ends_the_solve_with_the_warm_start_pair(monkeypatch):
    # every LogShift plan evaluation fails, whichever the demand takes first
    def failing_plan(*args):
        raise NonConvergence("LogShift cap multiplier search did not converge")

    monkeypatch.setattr(qvex.economy, "_logshift_plan", failing_plan)
    eco = symmetric_economy()
    prob = assemble_qvi(eco, default_caps(eco, 1.1))
    d = PriceCurve.uniform(eco.grid, 2)
    with pytest.raises(InnerSolveFailure) as err:
        agent_best_responses(d, prob, QVIParams())
    assert err.value.failed_agents == (0, 1)

    rep = solve_qvi(prob, QVIParams())
    assert not rep.converged and rep.iterations == 1
    assert "failed to certify" in rep.message and "agents [0, 1]" in rep.message
    assert np.all(np.isinf(rep.inner_residuals))
    np.testing.assert_array_equal(
        rep.allocation.values, stack_components(prob.warm_starts).values
    )


def test_demand_failure_keeps_the_best_certified_pair(oracle_problem, skewed_start):
    # agent 1's demand fails from the fourth outer iteration on
    calls = []

    def flaky(i, d):
        calls.append(i)
        if len(calls) > 6 and i == 1:
            raise NonConvergence("search budget exhausted")
        return oracle_problem.demand(i, d)

    rep = solve_qvi(replace(oracle_problem, demand=flaky), QVIParams(start_price=skewed_start))
    assert not rep.converged and rep.iterations == 4
    assert "failed to certify" in rep.message and "agents [1]" in rep.message
    assert rep.outer_residual == rep.residual_history[:-1].min()
    assert np.all(rep.inner_residuals <= 1e-12)


def test_agent_ladder_solves_on_exact_demand_alone(monkeypatch):
    # every inner VI of an economy is answered by exact demand; on
    # extragradient this solve takes about 40 s
    def no_extragradient(*args, **kwargs):
        raise AssertionError("extragradient called on an economy with exact demand")

    monkeypatch.setattr(qvex.qvi, "solve_vi_extragradient", no_extragradient)
    eco = make_agent_ladder_economy(32)
    rep = solve_qvi(assemble_qvi(eco, default_caps(eco, 1.1)), QVIParams())
    assert rep.converged and rep.iterations <= 40
    cert = certify_equilibrium(eco, rep.price, rep.agent_allocations(), tol=1e-6, seed=0)
    assert cert.verdict, cert.residuals


# --- truncated solves ---


def test_truncated_solve_runs_extragradient(oracle_problem, monkeypatch):
    # the exact demand map knows nothing of the ball, so the truncated
    # solve must not use it
    calls = []
    solve = qvex.qvi.solve_vi_extragradient

    def counting(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(qvex.qvi, "solve_vi_extragradient", counting)
    rep = solve_qvi_truncated(oracle_problem, [50.0, 100.0])
    assert rep.converged and rep.truncation_radius_used == 50.0 and calls


@pytest.mark.parametrize("radii", [[True, 2.0], [float("nan"), 50.0], [50.0, float("inf")]])
def test_truncation_rejects_radii_that_are_not_finite_positive_numbers(oracle_problem, radii):
    with pytest.raises(ValueError, match="finite positive"):
        solve_qvi_truncated(oracle_problem, radii)


def test_truncation_rejects_an_empty_schedule(oracle_problem):
    with pytest.raises(ValueError, match="at least one radius"):
        solve_qvi_truncated(oracle_problem, [])


def test_truncation_exhausted_keeps_inner_failure_message(oracle_problem, monkeypatch):
    # the radius advice must not hide that the last solve's inner VIs failed
    monkeypatch.setattr(qvex.qvi, "MAX_INNER", 2)
    rep = solve_qvi_truncated(oracle_problem, [50.0, 100.0], QVIParams())
    assert not rep.converged and rep.truncation_radius_used is None
    assert "radius" in rep.message and "failed to certify" in rep.message


def test_truncation_inactive_matches_plain_solve(oracle_problem, skewed_start):
    params = QVIParams(start_price=skewed_start)
    plain = solve_qvi(oracle_problem, params)
    big_radius = 10.0 * norm(stack_components(oracle_problem.warm_starts))
    trunc = solve_qvi_truncated(oracle_problem, [big_radius], params)
    assert trunc.converged
    assert trunc.truncation_radius_used == big_radius
    assert np.abs(trunc.price.values - plain.price.values).max() <= 1e-6
    assert np.abs(trunc.allocation.values - plain.allocation.values).max() <= 1e-6
    assert trunc.untruncated_check is not None and trunc.untruncated_check.verdict


def test_truncation_small_first_radius_rejected(oracle_problem, skewed_start):
    params = QVIParams(start_price=skewed_start)
    plain = solve_qvi(oracle_problem, params)
    sol_norm = norm(plain.allocation)
    radii = [0.5 * sol_norm, 10.0 * sol_norm]
    trunc = solve_qvi_truncated(oracle_problem, radii, params)
    assert trunc.converged
    assert trunc.truncation_radius_used == radii[1]
    assert np.abs(trunc.price.values - plain.price.values).max() <= 1e-6


def test_truncation_schedule_exhaustion_reports_failure(oracle_problem, skewed_start):
    params = QVIParams(start_price=skewed_start)
    plain = solve_qvi(oracle_problem, params)
    tiny = 0.3 * norm(plain.allocation)
    rep = solve_qvi_truncated(oracle_problem, [0.5 * tiny, tiny], params)
    assert not rep.converged
    assert rep.truncation_radius_used is None
    assert "radius" in rep.message


def test_truncation_rejects_non_increasing_schedule(oracle_problem):
    with pytest.raises(ValueError):
        solve_qvi_truncated(oracle_problem, [2.0, 2.0], QVIParams())


def test_truncated_solve_never_reaches_dykstra(oracle_problem, monkeypatch):
    def no_dykstra(*args, **kwargs):
        raise AssertionError("Dykstra reached from a solver path")

    monkeypatch.setattr(qvex.sets, "_dykstra_values", no_dykstra)
    sol_norm = norm(solve_qvi(oracle_problem).allocation)
    radii = [0.5 * sol_norm, 4.0 * sol_norm]
    rep = solve_qvi_truncated(oracle_problem, radii)
    assert rep.converged and rep.truncation_radius_used == radii[1]


def test_untruncated_check_names_the_worst_agent(oracle_problem, skewed_start):
    # the endowments lie inside any ball larger than their norm, but at the
    # skewed price neither agent's endowment is its best response
    from qvex.qvi import _untruncated_inner_check

    blocks = oracle_problem.warm_starts
    sets = oracle_problem.constraint_map(skewed_start)
    res = [
        vi_residual(x, op, s, RESIDUAL_GAUGE)
        for x, op, s in zip(blocks, oracle_problem.agent_operators, sets)
    ]
    check = _untruncated_inner_check(skewed_start, blocks, oracle_problem, 1e-8)
    assert not check.verdict
    assert check.witness == int(np.argmax(res))
    assert check.residuals == {f"untruncated_residual[{i}]": r for i, r in enumerate(res)}
    assert min(res) > 1e-8


def test_truncation_accepts_a_radius_that_holds_every_agents_plan(oracle_problem):
    # the ball cuts each agent's set: each plan has norm 1.1045, the stacked
    # allocation 1.5620, so radius 1.2 leaves every plan strictly inside
    plain = solve_qvi(oracle_problem)
    assert max(norm(b) for b in plain.agent_allocations()) < 1.2 < norm(plain.allocation)
    trunc = solve_qvi_truncated(oracle_problem, [1.2])
    assert trunc.converged and trunc.truncation_radius_used == 1.2
    assert trunc.untruncated_check.verdict
    assert np.abs(trunc.price.values - plain.price.values).max() <= 1e-6


def test_check_truncation_interior_rules(oracle_problem, skewed_start):
    rep = solve_qvi(oracle_problem, QVIParams(start_price=skewed_start))
    r = max(norm(b) for b in rep.agent_allocations())
    assert check_truncation_interior(rep, 10.0)
    assert not check_truncation_interior(rep, r)
    assert not check_truncation_interior(rep, r + 1e-12)


# --- product-space path ---


def test_product_path_zero_operator_is_stationary():
    g = make_grid(1.0, 2)
    e = GridFunction.constant(g, [0.7, 0.7])
    zero_op = OperatorHandle(lambda x: np.zeros_like(x), "monotone")

    prob = QVIProblem(
        price_set=PointwiseSimplex(),
        constraint_map=lambda p: [qvex.Intersection((qvex.BudgetHalfspace(p, e), qvex.CapBox((2.0, 2.0))))],
        agent_operators=[zero_op],
        outer_map=lambda x: GridFunction(g, np.zeros((2, 2))),
        grid=g,
        goods=2,
        warm_starts=[e],
    )
    rep = solve_qvi_product(prob, QVIParams())
    assert rep.converged
    assert rep.iterations == 1
    assert rep.outer_residual == 0.0
    np.testing.assert_array_equal(rep.allocation.values, e.values)


def test_product_path_no_trade():
    eco = symmetric_economy()
    prob = assemble_qvi(eco, default_caps(eco, 1.1))
    rep = solve_qvi_product(prob, QVIParams())
    assert rep.converged
    np.testing.assert_allclose(rep.price.values, 0.5, atol=1e-7)
    for block, agent in zip(rep.agent_allocations(), eco.agents):
        np.testing.assert_allclose(block.values, agent.endowment.values, atol=1e-7)


def test_product_path_agrees_with_two_level(oracle_problem, skewed_start):
    two_level = solve_qvi(oracle_problem, QVIParams(start_price=skewed_start))
    product = solve_qvi_product(oracle_problem, QVIParams(start_price=skewed_start))
    assert product.converged
    assert np.abs(product.price.values - two_level.price.values).max() <= 1e-4


def test_product_path_converges_within_the_outer_budget():
    eco = make_random_economy(10)
    prob = assemble_qvi(eco, default_caps(eco, 1.1))
    rep = solve_qvi_product(prob, QVIParams(seed=10, max_outer=400))
    assert rep.converged and rep.iterations <= 400


@pytest.mark.parametrize("max_outer", [3, 2000])
def test_each_product_check_logs_its_step(oracle_problem, skewed_start, caplog, max_outer):
    params = QVIParams(start_price=skewed_start, max_outer=max_outer)
    with caplog.at_level(logging.DEBUG, logger="qvex.qvi"):
        rep = solve_qvi_product(oracle_problem, params)
    records = [r for r in caplog.records if r.name == "qvex.qvi"]
    # args: k, outer residual, worst inner residual, step; a check every 10th step
    assert [r.args[0] for r in records] == list(range(0, rep.iterations, 10))
    assert [max(r.args[1], r.args[2]) for r in records] == list(rep.residual_history)
    assert all(r.args[3] > 0 and "step" in r.getMessage() for r in records)
    assert rep.converged == (max_outer == 2000)
    if not rep.converged:
        # each product step is one price update, counted against max_outer
        assert rep.iterations == max_outer
        assert f"best residual {min(rep.residual_history):.3e}" in rep.message
        final_step = float(rep.message.rsplit("final step ", 1)[1].rstrip(")"))
        assert 0 < final_step <= records[-1].args[3]


def test_stacked_operator_applies_blocks(oracle_problem):
    g = oracle_problem.grid
    x = stack_components(
        [GridFunction.constant(g, [0.3, 0.4]), GridFunction.constant(g, [0.1, 0.2])]
    )
    out = oracle_problem.operator(x)
    # blocks are the negative quadratic gradients q*x - b
    np.testing.assert_allclose(out.values, [[0.3 - 2.0, 0.4 - 1.0, 0.1 - 1.0, 0.2 - 2.0]])


def test_stacked_operator_on_arrays_matches_the_agent_operators_bit_for_bit():
    g = make_grid(2.0, 4)
    rng = np.random.default_rng(5)
    e = GridFunction(g, 0.5 + rng.random((4, 2)))
    bliss = GridFunction(g, 1.0 + rng.random((4, 2)))
    agents = (Agent(e, Quadratic(bliss, (1.0, 3.0))), Agent(e, LogShift((1.0, 2.0), 0.5, 4)))
    eco = Economy(g, 2, agents)
    prob = assemble_qvi(eco, default_caps(eco, 1.1))
    v = rng.random((4, 4))
    blocks = [
        op(GridFunction(g, v[:, 2 * i : 2 * i + 2])) for i, op in enumerate(prob.agent_operators)
    ]
    assert prob.operator.values(v).tobytes() == np.hstack([b.values for b in blocks]).tobytes()
    with pytest.raises(ShapeMismatch, match="cannot split 3 components into 2 blocks"):
        prob.operator.values(v[:, :3])
