import threading

import numpy as np
import pytest

import qvex
import qvex.cli
from corpus import make_planted_pair, make_random_economy
from oracles import (
    grid_function_coercivity_probe,
    grid_function_pseudomonotonicity_probe,
    integrate_component,
    per_sample_best_response,
)
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
from qvex.errors import NonConvergence

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
            assert integrate_component(block, j) < caps[j] - 1e-6
        assert best_response_residual(eco, rep.price, block, i, seed=i) <= 1e-6


@pytest.mark.parametrize("samples", [0, -3])
def test_certify_rejects_a_sample_count_below_one(samples):
    eco = two_agent_economy()
    p = PriceCurve.uniform(G, 2)
    plans = [a.endowment for a in eco.agents]
    with pytest.raises(ValueError, match="^samples: "):
        certify_equilibrium(eco, p, plans, samples=samples)
    with pytest.raises(ValueError, match="^samples: "):
        best_response_residual(eco, p, plans[0], 0, samples=samples)


@pytest.mark.parametrize(
    "kwargs, field",
    [
        ({"tol": float("nan")}, "tol"),
        ({"tol": 0.0}, "tol"),
        ({"tol": -1e-6}, "tol"),
        ({"tol": float("inf")}, "tol"),
        ({"seed": -1}, "seed"),
        ({"seed": 1.5}, "seed"),
        ({"seed": True}, "seed"),
    ],
)
def test_certify_rejects_a_bad_tolerance_or_seed(kwargs, field):
    # a negative seed used to fail every best response with inf, and a nan
    # tolerance to fail every gate, instead of raising
    eco = two_agent_economy()
    p = PriceCurve.uniform(G, 2)
    plans = [a.endowment for a in eco.agents]
    with pytest.raises(ValueError, match=f"^{field}: "):
        certify_equilibrium(eco, p, plans, **kwargs)


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


def _stuck_cone(*args):
    raise NonConvergence("budget-cone Newton iteration did not converge")


def test_certify_records_a_best_response_check_that_cannot_finish(monkeypatch):
    # a NonConvergence from an agent's check escaped, and the solve it
    # certified was lost with it
    eco, p, plans, _ = make_planted_pair(3, 2, 16, seed=5)
    assert certify_equilibrium(eco, p, plans).verdict
    monkeypatch.setattr(qvex.sets, "_project_budget_cone", _stuck_cone)
    rep = certify_equilibrium(eco, p, plans)
    assert not rep.verdict and rep.witness == ("best_response", 0)
    assert [rep.residuals[f"best_response[{i}]"] for i in range(3)] == [np.inf] * 3


def _planted_block_pair():
    """A 4 x 2 x 256 planted pair: 200 samples of 512 values fill a block,
    so its agents are checked concurrently wherever two CPUs are usable."""
    eco, p, plans, endowments = make_planted_pair(4, 2, 256, seed=5)
    assert 200 * 256 * 2 >= qvex.sets._SAMPLE_CHUNK
    return eco, p, plans, endowments


@pytest.fixture(params=["usable-cpus", "three-workers"])
def workers(request, monkeypatch):
    """The worker count of the concurrent path: the CPUs this process may
    use, or three whatever they are, so one CPU still reaches the threads."""
    if request.param == "three-workers":
        monkeypatch.setattr(qvex.verify, "_usable_cpus", lambda: 3)
    return min(4, qvex.verify._usable_cpus())


def _record_threads(monkeypatch, workers=1):
    """Wrap the per-agent check to record the thread each agent ran on.

    The first `workers` agents wait for each other before they are checked,
    so they run on as many threads, or the wait times out."""
    threads, check = {}, qvex.verify.best_response_residual
    together = threading.Barrier(workers)

    def recorded(eco, p, x_i, i, **kwargs):
        threads[i] = threading.get_ident()
        if i < workers:
            together.wait(timeout=10)
        return check(eco, p, x_i, i, **kwargs)

    monkeypatch.setattr(qvex.verify, "best_response_residual", recorded)
    return threads


@pytest.mark.parametrize("candidate", ["plans", "endowments", "mixed"])
def test_concurrent_checks_match_a_serial_loop_in_index_order(monkeypatch, workers, candidate):
    eco, p, plans, endowments = _planted_block_pair()
    x = {"plans": plans, "endowments": endowments, "mixed": plans[:2] + endowments[2:]}[candidate]
    serial = [best_response_residual(eco, p, x[i], i, samples=200, seed=7 + i) for i in range(4)]
    threads = _record_threads(monkeypatch, workers)

    rep = certify_equilibrium(eco, p, x, tol=1e-6, seed=7)

    assert [rep.residuals[f"best_response[{i}]"] for i in range(4)] == serial
    failing = [i for i, br in enumerate(serial) if not br <= 1e-6]
    assert failing == {"plans": [], "endowments": [0, 1, 2, 3], "mixed": [2, 3]}[candidate]
    assert rep.witness == (("best_response", failing[0]) if failing else None)
    assert rep.verdict == (candidate == "plans")
    assert len({threads[i] for i in range(workers)}) == workers


def test_checks_stay_serial_below_three_quarters_of_a_block(monkeypatch, workers):
    # the cutoff is read at call time: a block of more than 4/3 of an
    # agent's sampled values keeps every check on the caller's thread
    eco, p, plans, _ = _planted_block_pair()
    threads = _record_threads(monkeypatch)
    monkeypatch.setattr(qvex.sets, "_SAMPLE_CHUNK", 4 * 200 * 256 * 2 // 3 + 1)
    assert certify_equilibrium(eco, p, plans).verdict
    assert set(threads.values()) == {threading.get_ident()}


def test_checks_run_on_threads_from_three_quarters_of_a_block(monkeypatch, workers):
    eco, p, plans, _ = _planted_block_pair()
    threads = _record_threads(monkeypatch, workers)
    monkeypatch.setattr(qvex.sets, "_SAMPLE_CHUNK", 4 * 200 * 256 * 2 // 3)
    assert certify_equilibrium(eco, p, plans).verdict
    assert len({threads[i] for i in range(workers)}) == workers


def test_a_concurrent_check_raises_the_lowest_agents_error(monkeypatch, workers):
    # a serial loop raises agent 1's error and never reaches agent 3; on
    # threads agent 1 fails only after agent 3 has, and its error is still
    # the one raised
    eco, p, plans, _ = _planted_block_pair()
    check, third_failed = qvex.verify.best_response_residual, threading.Event()

    def planted(eco, p, x_i, i, **kwargs):
        if i == 1 and workers > 1:
            assert third_failed.wait(timeout=10)
        if i in (1, 3):
            if i == 3:
                third_failed.set()
            raise RuntimeError(f"planted failure in agent {i}")
        return check(eco, p, x_i, i, **kwargs)

    monkeypatch.setattr(qvex.verify, "best_response_residual", planted)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="^planted failure in agent 1$"):
        certify_equilibrium(eco, p, plans)
    assert threading.active_count() == before


def test_concurrent_checks_record_a_check_that_cannot_finish(monkeypatch, workers):
    eco, p, plans, _ = _planted_block_pair()
    monkeypatch.setattr(qvex.sets, "_project_budget_cone", _stuck_cone)
    before = threading.active_count()
    rep = certify_equilibrium(eco, p, plans)
    assert not rep.verdict and rep.witness == ("best_response", 0)
    assert [rep.residuals[f"best_response[{i}]"] for i in range(4)] == [np.inf] * 4
    assert threading.active_count() == before


def test_a_block_filling_pair_with_every_budget_broken_checks_no_agent(workers):
    # no agent passes its budget gate, so there is no check to run, and
    # no pool to build for one
    eco, p, _, endowments = _planted_block_pair()
    before = threading.active_count()
    rep = certify_equilibrium(eco, p, [3.0 * e for e in endowments])
    assert not rep.verdict
    assert all(rep.residuals[f"budget[{i}]"] > 1e-6 for i in range(4))
    assert [rep.residuals[f"best_response[{i}]"] for i in range(4)] == [np.inf] * 4
    assert threading.active_count() == before


@pytest.mark.parametrize("count", [1, 3])
@pytest.mark.parametrize("check", [market_clearing_residual, budget_residuals, walras_residual])
def test_residuals_need_exactly_one_plan_per_agent(check, count):
    # zip dropped the plans past the shorter of the two lists
    eco = two_agent_economy()
    x = [a.endowment for a in eco.agents * 2][:count]
    args = (eco, x) if check is market_clearing_residual else (eco, PriceCurve.uniform(G, 2), x)
    with pytest.raises(ValueError, match="^x: need one plan per agent"):
        check(*args)


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
    rot = OperatorHandle(lambda x: np.column_stack([-x[:, 1], x[:, 0]]))
    rep = pseudomonotonicity_probe(rot, ball, center, pairs=300, seed=1, scale=2.0)
    assert rep.verdict


def test_pseudomonotonicity_fails_on_repulsion_fixture():
    # F(x) = -x off the origin violates the implication; a frozen witness:
    # x=(2,1), y=(1,2): <F(x), y-x> = 1 >= 0 but <F(y), y-x> = -1 < 0
    x = np.array([2.0, 1.0])
    y = np.array([1.0, 2.0])
    assert (-x) @ (y - x) >= 0 and (-y) @ (y - x) < 0

    neg = OperatorHandle(lambda f: -f)
    box = Ball(1.0, center=(1.5, 1.5))  # off-origin region
    center = GridFunction.constant(G, [1.5, 1.5])
    rep = pseudomonotonicity_probe(neg, box, center, pairs=400, seed=2, scale=1.5)
    assert not rep.verdict
    assert rep.witness is not None
    wx, wy = rep.witness
    assert inner_product(neg(wx), wy - wx) >= 0.0
    assert inner_product(neg(wy), wy - wx) < -1e-9


@pytest.mark.parametrize("scale", [0.0, -1.5, np.nan, np.inf])
def test_pseudomonotonicity_probe_rejects_a_scale_that_is_not_finite_and_positive(scale):
    # at scale 0 every pair is x = y, which passed the repulsion fixture above
    neg = OperatorHandle(lambda f: -f)
    box, center = Ball(1.0, center=(1.5, 1.5)), GridFunction.constant(G, [1.5, 1.5])
    with pytest.raises(ValueError, match="^scale: "):
        pseudomonotonicity_probe(neg, box, center, pairs=400, seed=2, scale=scale)


def test_coercivity_probe_rejects_a_nan_radius_and_no_samples(oracle_problem):
    # a NaN radius passed vacuously, and no samples died in max()
    p = PriceCurve.uniform(oracle_problem.grid, oracle_problem.goods)
    with pytest.raises(ValueError, match="^r_d: "):
        coercivity_probe(oracle_problem, p, float("nan"))
    with pytest.raises(ValueError, match="^samples: "):
        coercivity_probe(oracle_problem, p, 1.0, samples=0)


@pytest.mark.parametrize(
    "d",
    [
        # passed vacuously, measuring samples drawn on the wrong grid
        pytest.param(PriceCurve.uniform(make_grid(2.0, 1), 2), id="horizon"),
        # died in the sampler with "cannot reshape array of size 2 into shape (3,)"
        pytest.param(PriceCurve.uniform(G, 3), id="goods"),
    ],
)
def test_coercivity_probe_rejects_a_price_off_the_problem_grid(oracle_problem, d):
    with pytest.raises(ValueError, match="^d: need 2 goods on "):
        coercivity_probe(oracle_problem, d, 5.0)


def test_a_plan_over_budget_past_1e_9_fails_whatever_the_tolerance(oracle_economy, oracle_problem):
    # the budget gate passes 5e-7 at tol=1e-3, but the best-response check
    # refuses a plan more than 1e-9 outside the uncapped budget set
    eco, _ = oracle_economy
    rep = solve_qvi(oracle_problem)
    p, plans = rep.price, rep.agent_allocations()
    gap = 5e-7 - budget_residuals(eco, p, plans)[0]
    step = gap / (eco.grid.dt * np.sum(p.values**2))
    plans[0] = plans[0].with_values(plans[0].values + step * p.values)
    cert = certify_equilibrium(eco, p, plans, tol=1e-3, seed=0)
    assert cert.residuals["budget[0]"] == pytest.approx(5e-7, rel=1e-6)
    assert cert.residuals["best_response[0]"] == np.inf
    assert cert.residuals["best_response[1]"] <= 1e-6
    assert not cert.verdict and cert.witness == ("best_response", 0)


def test_certify_needs_exactly_one_plan_per_agent(oracle_economy, oracle_problem):
    # an extra plan was ignored, so a junk plan rode along on a certified pair
    eco, _ = oracle_economy
    rep = solve_qvi(oracle_problem)
    plans = rep.agent_allocations()
    assert certify_equilibrium(eco, rep.price, plans).verdict
    junk = GridFunction.constant(eco.grid, [100.0, 100.0])
    for x in (plans + [junk], plans[:1]):
        with pytest.raises(ValueError, match="^x: "):
            certify_equilibrium(eco, rep.price, x)


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
    ident = OperatorHandle(lambda x: x)
    prob = QVIProblem(
        constraint_map=lambda p: [CapBox((np.inf,))],
        agent_operators=[ident],
        outer_map=lambda x: GridFunction(g, np.zeros((1, 1))),
        warm_starts=[e],
    )
    rep = coercivity_probe(prob, PriceCurve.uniform(g, 1), r_d=1.0, samples=64, seed=3)
    assert rep.verdict and not rep.vacuous


def test_coercivity_fails_on_outward_constant_field():
    # constant pull up the ray: no smaller-norm point ever satisfies the test
    g = make_grid(1.0, 1)
    e = GridFunction.constant(g, [1.0])
    outward = OperatorHandle(lambda x: np.full_like(x, -1.0))
    prob = QVIProblem(
        constraint_map=lambda p: [CapBox((np.inf,))],
        agent_operators=[outward],
        outer_map=lambda x: GridFunction(g, np.zeros((1, 1))),
        warm_starts=[e],
    )
    rep = coercivity_probe(prob, PriceCurve.uniform(g, 1), r_d=1.0, samples=64, seed=4)
    assert not rep.verdict
    assert rep.witness is not None


def _run_probes_calls(scenario_dir, tmp_path, monkeypatch):
    """The probe calls `run_probes` makes on the bundled scenarios, as
    (probe name, args, kwargs)."""
    calls = []
    for name in ("pseudomonotonicity_probe", "coercivity_probe"):
        probe = getattr(qvex.cli, name)
        monkeypatch.setattr(
            qvex.cli, name,
            lambda *a, _n=name, _f=probe, **k: calls.append((_n, a, k)) or _f(*a, **k),
        )
    for path in sorted(scenario_dir.glob("*.yaml")):
        qvex.cli.run_probes(path, tmp_path / path.stem)
    monkeypatch.undo()
    return calls


def _criterion_7_calls():
    """Criterion 7's failing fixtures and a passing one beyond the radius."""
    g1 = make_grid(1.0, 1)
    repulsion = (
        OperatorHandle(lambda f: -f), Ball(1.0, center=(1.5, 1.5)),
        GridFunction.constant(g1, [1.5, 1.5]),
    )

    def ray(op):
        return QVIProblem(
            constraint_map=lambda p: [CapBox((np.inf,))],
            agent_operators=[op],
            outer_map=lambda x: GridFunction(g1, np.zeros((1, 1))),
            warm_starts=[GridFunction.constant(g1, [1.0])],
        )

    uniform = PriceCurve.uniform(g1, 1)
    outward, ident = OperatorHandle(lambda x: np.full_like(x, -1.0)), OperatorHandle(lambda x: x)
    return [
        ("pseudomonotonicity_probe", repulsion, {"pairs": 400, "seed": 2, "scale": 1.5}),
        ("coercivity_probe", (ray(outward), uniform), {"r_d": 1.0, "samples": 64, "seed": 4}),
        ("coercivity_probe", (ray(ident), uniform), {"r_d": 1.0, "samples": 64, "seed": 3}),
    ]


def test_probes_match_their_grid_function_reference(scenario_dir, tmp_path, monkeypatch):
    # the array probes draw the same generator stream and pair and measure
    # with the same formulas, so every number and witness keeps its bits
    references = {
        "pseudomonotonicity_probe": grid_function_pseudomonotonicity_probe,
        "coercivity_probe": grid_function_coercivity_probe,
    }
    calls = _run_probes_calls(scenario_dir, tmp_path, monkeypatch) + _criterion_7_calls()
    # four scenarios, each with two agents and one coercivity call
    assert len(calls) == 4 * 3 + 3
    verdicts = []
    for name, args, kwargs in calls:
        rep = getattr(qvex.verify, name)(*args, **kwargs)
        ref = references[name](*args, **kwargs)
        fields = ("verdict", "residuals", "samples_used", "seed", "vacuous", "tolerance", "name")
        assert [getattr(rep, f) for f in fields] == [getattr(ref, f) for f in fields]
        assert type(rep.witness) is type(ref.witness)
        if ref.witness is not None:
            assert len(rep.witness) == len(ref.witness)
            for w, w_ref in zip(rep.witness, ref.witness):
                assert type(w) is type(w_ref) and w.grid == w_ref.grid
                assert w.values.tobytes() == w_ref.values.tobytes()
        verdicts.append(rep.verdict)
    assert verdicts[-3:] == [False, False, True]


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
