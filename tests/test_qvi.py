import logging
from dataclasses import replace

import numpy as np
import pytest

import qvex
from corpus import CORPUS_SEEDS, make_agent_ladder_economy, make_random_economy
from oracles import sample_feasible, solve_qvi_product
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
    assemble_qvi,
    certify_equilibrium,
    check_truncation_interior,
    default_caps,
    inner_product,
    make_grid,
    membership_residual,
    norm,
    solve_qvi,
    solve_qvi_truncated,
    split_components,
    stack_components,
    vi_residual,
)
from qvex.errors import InnerSolveFailure, NonConvergence
from qvex.qvi import OUTER_STEP0, RESIDUAL_GAUGE, _best_responses
from qvex.scenario import build_economy, load_scenario


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


def agent_best_responses(d, prob, params):
    """Stacked inner solutions x(d), each certified on its own K_i(d); the
    selection of the inner solution map that the outer iteration works with."""
    if membership_residual(d, PointwiseSimplex()) > 1e-9:
        raise ValueError("price curve is not in the price set")
    blocks, _, inner_res, _ = _best_responses(d, prob, params, params.inner_tol)
    failed = np.flatnonzero(inner_res > params.inner_tol).tolist()
    if failed:
        raise InnerSolveFailure(
            f"inner solves failed to certify at tol={params.inner_tol:g} for agents {failed}",
            failed_agents=failed,
        )
    return stack_components(blocks)


def outer_operator(d, prob, params):
    """The price-space direction f(x(d)); for economies, e - demand aggregated."""
    return prob.outer_map(agent_best_responses(d, prob, params))


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
    # bliss away from the warm start: two iterations of the inner solver cannot
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
            z = sample_feasible(s, block, 1.0, rng, 1)[0]
            total += inner_product(f, z - block)
        worst = min(worst, total)
    assert worst >= -2e-8


def _scenario_problem(scenario_dir, name):
    scn = load_scenario(scenario_dir / f"{name}.yaml")
    eco = build_economy(scn)
    return scn, eco, assemble_qvi(eco, default_caps(eco, scn.cap_slack))


def _scenario_solve(scenario_dir, name):
    scn, eco, prob = _scenario_problem(scenario_dir, name)
    return eco, solve_qvi(prob, scn.solver)


def test_a_start_price_that_certifies_ends_the_solve_at_once(scenario_dir):
    # both bundled economies are in equilibrium at the uniform start price,
    # so the first iterate certifies and no second one is computed
    from oracles import cd_quad_oracle

    eco, rep = _scenario_solve(scenario_dir, "oracle_cd_quad")
    assert rep.converged and rep.iterations == 1
    price, _ = cd_quad_oracle(
        [np.array([2.0, 1.0]), np.array([1.0, 2.0])],
        [np.ones(2), np.ones(2)],
        [np.array([1.0, 0.2]), np.array([0.2, 1.0])],
        caps=np.array([1.32, 1.32]),
        dt=1.0,
    )
    assert np.abs(rep.price.values[0] - price).max() <= 1e-4

    eco, rep = _scenario_solve(scenario_dir, "symmetric_no_trade")
    assert rep.converged and rep.iterations == 1
    np.testing.assert_allclose(rep.price.values, 0.5, atol=1e-8)
    for block, agent in zip(rep.agent_allocations(), eco.agents):
        np.testing.assert_allclose(block.values, agent.endowment.values, atol=1e-8)


@pytest.mark.parametrize("truncated", [False, True], ids=["plain", "truncated"])
def test_converged_means_both_certificates_hold_over_the_corpus(truncated):
    solve = solve_qvi_truncated if truncated else solve_qvi
    for seed in CORPUS_SEEDS:
        eco = make_random_economy(seed)
        params = QVIParams(seed=seed)
        rep = solve(assemble_qvi(eco, default_caps(eco, 1.1)), params=params)
        assert rep.converged, f"seed {seed}: {rep.message}"
        assert rep.outer_residual <= params.outer_tol, f"seed {seed}"
        assert rep.inner_residuals.max() <= params.inner_tol, f"seed {seed}"


@pytest.mark.parametrize(
    "horizon, cells, goods",
    [
        pytest.param(1.0, 1, 2, id="cells"),
        pytest.param(2.0, 16, 2, id="horizon"),
        pytest.param(1.0, 16, 3, id="goods"),
    ],
)
def test_a_start_price_off_the_problem_grid_is_rejected(scenario_dir, horizon, cells, goods):
    eco = build_economy(load_scenario(scenario_dir / "sinusoid_seasonal.yaml"))
    prob = assemble_qvi(eco, default_caps(eco, 1.1))
    params = QVIParams(start_price=PriceCurve.uniform(make_grid(horizon, cells), goods))
    with pytest.raises(ValueError, match="^start_price: "):
        solve_qvi(prob, params)
    with pytest.raises(ValueError, match="^start_price: "):
        solve_qvi_truncated(prob, params=params)


def _zero_operator_problem(warm_starts):
    zero = OperatorHandle(lambda x: np.zeros_like(x))
    return QVIProblem(
        constraint_map=lambda p: [qvex.CapBox((np.inf,) * w.components) for w in warm_starts],
        agent_operators=[zero] * len(warm_starts),
        outer_map=lambda x: x,
        warm_starts=warm_starts,
    )


@pytest.mark.parametrize(
    "warm_starts",
    [
        pytest.param(
            [GridFunction.constant(make_grid(h, 1), [1.0, 1.0]) for h in (1.0, 2.0)],
            id="two-horizons",
        ),
        pytest.param(
            [GridFunction.constant(make_grid(1.0, 1), [1.0] * m) for m in (2, 3)],
            id="two-goods-counts",
        ),
        pytest.param([], id="none"),
    ],
)
def test_warm_starts_that_fix_no_one_grid_and_goods_count_are_rejected(warm_starts):
    # a problem used to take its grid and goods on trust: a price on
    # horizon 2.0 solved beside allocations on horizon 1.0, and a third
    # good died in numpy broadcasting
    with pytest.raises(ValueError, match="^warm_starts: "):
        _zero_operator_problem(warm_starts)


def test_a_problem_reads_its_grid_and_goods_off_the_warm_starts(oracle_economy, oracle_problem):
    eco, _ = oracle_economy
    assert (oracle_problem.grid, oracle_problem.goods) == (eco.grid, eco.goods)
    three = _zero_operator_problem([GridFunction.constant(make_grid(2.0, 5), [1.0] * 3)] * 2)
    assert (three.grid, three.goods) == (make_grid(2.0, 5), 3)
    for name, value in (("grid", make_grid(2.0, 1)), ("goods", 3)):
        with pytest.raises(ValueError, match=f"field {name} is declared with init=False"):
            replace(oracle_problem, **{name: value})


def test_solver_determinism(oracle_problem, skewed_start):
    rep1 = solve_qvi(oracle_problem, QVIParams(start_price=skewed_start))
    rep2 = solve_qvi(oracle_problem, QVIParams(start_price=skewed_start))
    assert rep1.iterations == rep2.iterations
    np.testing.assert_array_equal(rep1.price.values, rep2.price.values)
    np.testing.assert_array_equal(rep1.allocation.values, rep2.allocation.values)


def test_inner_failure_returns_a_pair_instead_of_raising(
    oracle_problem, skewed_start, monkeypatch
):
    # without the exact demand map the inner VIs run on the iterative
    # solver, and four of its iterations certify agent 1's first, loose
    # inner solve but not agent 0's
    oracle_problem = replace(oracle_problem, demand=None)
    monkeypatch.setattr(qvex.qvi, "MAX_INNER", 4)
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


def test_a_repeated_price_leaves_the_step_as_it_was(oracle_problem, caplog):
    # the uniform start is this economy's equilibrium, so the first step
    # returns the same price while the inner tolerance tightens; the zero
    # ratio of that repeat must be skipped, or it freezes the step at 0
    with caplog.at_level(logging.DEBUG, logger="qvex.qvi"):
        rep = solve_qvi_truncated(oracle_problem, [50.0, 100.0])
    records = [r for r in caplog.records if r.name == "qvex.qvi"]
    assert rep.converged and [r.args[0] for r in records] == [0, 1]
    assert [r.args[2] for r in records] == [OUTER_STEP0, OUTER_STEP0]


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
    for i in (0, 1):
        assert f"agent {i}: LogShift cap multiplier search did not converge" in rep.message
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
    assert rep.message.endswith("; agent 1: search budget exhausted")
    assert rep.outer_residual == rep.residual_history[:-1].min()
    assert np.all(rep.inner_residuals <= 1e-12)


def _assert_inner_residuals_are_the_returned_pairs(rep, prob, failed=()):
    """Each reported inner residual is a fresh gauge residual of the returned
    block on its set at the returned price, inf for the `failed` agents."""
    sets = prob.constraint_map(rep.price)
    blocks = rep.agent_allocations()
    for i, (block, op, s) in enumerate(zip(blocks, prob.agent_operators, sets)):
        fresh = np.inf if i in failed else vi_residual(block, op, s, RESIDUAL_GAUGE)
        assert rep.inner_residuals[i] == fresh, i


def test_an_exhausted_budget_reports_the_returned_pairs_inner_residuals(scenario_dir):
    scn, _, prob = _scenario_problem(scenario_dir, "tiny_budget")
    rep = solve_qvi(prob, scn.solver)
    assert not rep.converged and "budget exhausted" in rep.message
    _assert_inner_residuals_are_the_returned_pairs(rep, prob)


def test_a_failed_demand_reports_the_returned_pairs_inner_residuals(oracle_problem, skewed_start):
    # agent 1's demand fails at once, so the failing iteration's pair returns
    def failing(i, d):
        if i == 1:
            raise NonConvergence("search budget exhausted")
        return oracle_problem.demand(i, d)

    prob = replace(oracle_problem, demand=failing)
    rep = solve_qvi(prob, QVIParams(start_price=skewed_start))
    assert not rep.converged and rep.iterations == 1 and "agents [1]" in rep.message
    _assert_inner_residuals_are_the_returned_pairs(rep, prob, failed=(1,))


def test_unbounded_demand_says_which_good_and_cell_in_the_message():
    # uncapped goods, and good 1 free in cell 0: no LogShift agent has a
    # best response there, and the message says why, not only "inf"
    g = make_grid(1.0, 2)
    agents = tuple(
        Agent(GridFunction.constant(g, e), LogShift((1.0, 1.0), 1.0, 2))
        for e in ([1.0, 0.5], [0.5, 1.0])
    )
    prob = assemble_qvi(Economy(g, 2, agents), [np.inf, np.inf])
    start = PriceCurve(g, np.array([[1.0, 0.0], [0.5, 0.5]]))
    rep = solve_qvi(prob, QVIParams(start_price=start))
    assert not rep.converged and rep.iterations == 1
    assert "agents [0, 1] (residuals ['inf', 'inf'])" in rep.message
    for i in (0, 1):
        assert (
            f"agent {i}: LogShift demand is unbounded: good 1 is uncapped and free in cell 0"
            in rep.message
        )
    assert "solve_qvi_truncated" in rep.message


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
    # solve must not use it.  Its inner solves project once per iteration
    # (forward-reflected-backward), once more for each solve's start, and
    # once in the step that certifies the returned iterate; a
    # two-projection iteration (extragradient) takes 244 projections for
    # 118 iterations here.
    solve, project_values = qvex.qvi.solve_vi_extragradient, qvex.vi.project_values
    inside, iterations, projections = [], [], []

    def counting_projection(*args):
        projections.extend(inside)
        return project_values(*args)

    def counting_solve(*args, **kwargs):
        inside.append(1)
        try:
            rep = solve(*args, **kwargs)
        finally:
            inside.pop()
        iterations.append(rep.iterations)
        return rep

    monkeypatch.setattr(qvex.vi, "project_values", counting_projection)
    monkeypatch.setattr(qvex.qvi, "solve_vi_extragradient", counting_solve)
    rep = solve_qvi_truncated(oracle_problem, [50.0, 100.0])
    assert rep.converged and rep.truncation_radius_used == 50.0 and iterations
    assert len(projections) <= sum(iterations) + 2 * len(iterations)
    assert sum(iterations) <= 110


@pytest.mark.parametrize(
    "name,radii", [("sinusoid_seasonal", [5.0, 10.0]), ("oracle_cd_quad", [50.0, 100.0])]
)
def test_truncated_solves_give_the_same_bits_whatever_the_seed(scenario_dir, name, radii):
    # the solvers draw no random numbers; the seed seeds only the
    # certificate and the probes
    scn, _, prob = _scenario_problem(scenario_dir, name)
    reps = [solve_qvi_truncated(prob, radii, replace(scn.solver, seed=k)) for k in (0, 3)]
    assert all(rep.converged for rep in reps)
    for field in ("price", "allocation"):
        first, second = (getattr(rep, field).values.tobytes() for rep in reps)
        assert first == second, field


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


def test_truncated_solve_never_reaches_dykstra(oracle_problem):
    # qvex has no Dykstra fallback: a truncated set that the exact
    # budget-caps-ball kernel cannot take raises TypeError in `project`
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
    zero_op = OperatorHandle(lambda x: np.zeros_like(x))

    prob = QVIProblem(
        constraint_map=lambda p: [qvex.Intersection((qvex.BudgetHalfspace(p, e), qvex.CapBox((2.0, 2.0))))],
        agent_operators=[zero_op],
        outer_map=lambda x: GridFunction(g, np.zeros((2, 2))),
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
    with caplog.at_level(logging.DEBUG, logger="oracles"):
        rep = solve_qvi_product(oracle_problem, params)
    records = [r for r in caplog.records if r.name == "oracles"]
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
