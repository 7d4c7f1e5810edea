"""Acceptance suite: one test per criterion, each printing a PASS line.

Run as `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred.
"""

import time

import numpy as np
import pytest

import qvex
from corpus import CORPUS_SEEDS, make_random_economy
from oracles import brute_force_project, cd_quad_oracle, projected_gradient_vi
from qvex import (
    Agent,
    Ball,
    BudgetHalfspace,
    CapBox,
    Economy,
    GridFunction,
    Intersection,
    LogShift,
    OperatorHandle,
    PointwiseSimplex,
    PriceCurve,
    QVIParams,
    QVIProblem,
    Quadratic,
    assemble_qvi,
    certify_equilibrium,
    check_concavity,
    check_growth_condition,
    coercivity_probe,
    default_caps,
    make_grid,
    norm,
    project,
    pseudomonotonicity_probe,
    sample_feasible,
    solve_qvi,
    solve_qvi_product,
    solve_qvi_truncated,
    solve_vi_extragradient,
    vi_residual,
)
from qvex.sets import project_values


def _report(n, name):
    print(f"ACCEPTANCE-{n:02d} {name}: PASS")


@pytest.fixture(scope="module")
def corpus_solutions():
    """Solve every corpus scenario once; shared by criteria 3 and 5."""
    out = {}
    for seed in CORPUS_SEEDS:
        eco = make_random_economy(seed)
        prob = assemble_qvi(eco, default_caps(eco, 1.1))
        rep = solve_qvi(prob, QVIParams(seed=seed))
        out[seed] = (eco, prob, rep)
    return out


def test_criterion_1_oracle_cd_quad(oracle_economy, oracle_problem, skewed_start):
    eco, caps = oracle_economy
    price_star, demands_star = cd_quad_oracle(
        [np.array([2.0, 1.0]), np.array([1.0, 2.0])],
        [np.ones(2), np.ones(2)],
        [np.array([1.0, 0.2]), np.array([0.2, 1.0])],
        caps=np.asarray(caps),
        dt=1.0,
    )
    # frozen expected values, confirmed by the KKT + bisection oracle
    np.testing.assert_allclose(price_star, [0.5, 0.5], atol=1e-9)
    np.testing.assert_allclose(demands_star[0], [1.1, 0.1], atol=1e-9)
    np.testing.assert_allclose(demands_star[1], [0.1, 1.1], atol=1e-9)

    t0 = time.perf_counter()
    rep = solve_qvi(oracle_problem, QVIParams(start_price=skewed_start))
    cert = certify_equilibrium(eco, rep.price, rep.agent_allocations(), tol=1e-5, seed=0)
    elapsed = time.perf_counter() - t0

    assert rep.converged
    assert norm(rep.price - PriceCurve(eco.grid, price_star[None, :])) <= 1e-4
    assert cert.verdict
    assert elapsed < 5.0
    _report(1, f"oracle-cd-quad (price gap {np.abs(rep.price.values[0]-price_star).max():.1e}, {elapsed:.2f}s)")


def test_criterion_2_symmetric_no_trade():
    g = make_grid(1.0, 4)
    e = GridFunction.constant(g, [0.5, 0.5])
    spec = LogShift((1.0, 1.0), 1.0, 4)
    eco = Economy(g, 2, (Agent(e, spec), Agent(e, spec)))
    prob = assemble_qvi(eco, default_caps(eco, 1.1))

    t0 = time.perf_counter()
    rep = solve_qvi(prob, QVIParams())
    elapsed = time.perf_counter() - t0

    assert rep.converged
    assert rep.outer_residual <= 1e-8
    assert rep.inner_residuals.max() <= 1e-8
    np.testing.assert_allclose(rep.price.values, 0.5, atol=1e-8)
    for block, agent in zip(rep.agent_allocations(), eco.agents):
        np.testing.assert_allclose(block.values, agent.endowment.values, atol=1e-8)
    assert elapsed < 1.0
    _report(2, f"symmetric-no-trade ({elapsed:.3f}s)")


def test_criterion_3_equilibrium_chain_over_corpus(corpus_solutions):
    assert len(corpus_solutions) >= 20
    converged = 0
    for seed, (eco, prob, rep) in corpus_solutions.items():
        assert rep.converged, f"corpus seed {seed} did not converge"
        converged += 1
        blocks = rep.agent_allocations()
        cert = certify_equilibrium(eco, rep.price, blocks, tol=1e-6, seed=seed)
        assert cert.verdict, f"seed {seed} failed certification: {cert.residuals}"
        clearing = qvex.market_clearing_residual(eco, blocks)
        budgets = qvex.budget_residuals(eco, rep.price, blocks)
        assert clearing.max() <= 1e-6, f"seed {seed} clearing {clearing}"
        assert budgets.max() <= 1e-8, f"seed {seed} budgets {budgets}"
    _report(3, f"equilibrium-chain over {converged} scenarios")


def test_criterion_4_truncation_consistency(oracle_problem, skewed_start):
    params = QVIParams(start_price=skewed_start)
    plain = solve_qvi(oracle_problem, params)
    assert plain.converged
    sol_norm = norm(plain.allocation)

    above = solve_qvi_truncated(oracle_problem, [2.0 * sol_norm, 8.0 * sol_norm], params)
    assert above.converged
    assert above.truncation_radius_used == 2.0 * sol_norm
    assert np.abs(above.price.values - plain.price.values).max() <= 1e-6
    assert np.abs(above.allocation.values - plain.allocation.values).max() <= 1e-6

    staged = solve_qvi_truncated(oracle_problem, [0.5 * sol_norm, 4.0 * sol_norm], params)
    assert staged.converged
    assert staged.truncation_radius_used == 4.0 * sol_norm  # first radius rejected
    # and the rejection really came from the interiority rule
    small = solve_qvi_truncated(oracle_problem, [0.5 * sol_norm], params)
    assert not small.converged and small.truncation_radius_used is None
    _report(4, "truncation-consistency")


def test_criterion_5_cross_solver_agreement(corpus_solutions):
    agreements = 0
    for seed, (eco, prob, rep) in corpus_solutions.items():
        product = solve_qvi_product(prob, QVIParams(seed=seed))
        if not product.converged:
            continue
        gap = norm(product.price - rep.price)
        assert gap <= 1e-4, f"seed {seed}: product/two-level price gap {gap:.2e}"
        agreements += 1
    assert agreements >= 10, f"product path converged on only {agreements} scenarios"
    _report(5, f"cross-solver agreement on {agreements}/{len(corpus_solutions)} scenarios")


def test_criterion_6_vi_core_affine_instance():
    rng = np.random.default_rng(42)
    dim = 10
    M = rng.normal(size=(dim, dim)) / np.sqrt(dim)
    A = M.T @ M + np.eye(dim)
    b = rng.normal(size=dim)
    g = make_grid(1.0, 1)
    op = OperatorHandle(lambda x: x.with_values((A @ x.values[0] + b)[None, :]), "monotone")
    C = Ball(1.0)

    rep = solve_vi_extragradient(op, C, GridFunction(g, np.zeros((1, dim))), tol=1e-6, max_iter=10000, seed=1)
    assert rep.converged
    assert rep.iterations <= 10000
    assert vi_residual(rep.solution, op, C, rep.step_used) <= 1e-6

    star = projected_gradient_vi(
        lambda v: A @ v + b, lambda v: project_values(v[None, :], C, g)[0], np.zeros(dim), step=1e-3
    )
    assert np.linalg.norm(rep.solution.values[0] - star) <= 1e-6
    _report(6, f"vi-core ({rep.iterations} iterations)")


def test_criterion_7_probe_soundness(oracle_problem):
    g1 = make_grid(1.0, 1)

    # compliant fixtures pass
    quad = Agent(
        GridFunction.constant(g1, [1.0, 1.0]),
        Quadratic(GridFunction.constant(g1, [2.0, 1.0]), (1.0, 1.0)),
    )
    log = Agent(GridFunction.constant(g1, [1.0, 1.0]), LogShift((1.0, 2.0), 1.0, 1))
    for agent in (quad, log):
        assert check_growth_condition(agent, samples=400, seed=0).verdict
        assert check_concavity(agent, samples=400, seed=0).verdict
    p = PriceCurve.uniform(g1, 2)
    for op, s, w in zip(
        oracle_problem.agent_operators,
        oracle_problem.constraint_map(p),
        oracle_problem.warm_starts,
    ):
        assert pseudomonotonicity_probe(op, s, w, pairs=200, seed=0, scale=2.0).verdict
    caps = np.asarray(oracle_problem.caps)
    r_d = 1.0 + float(np.sqrt(2 * np.sum(caps**2) / g1.dt))
    rep = coercivity_probe(oracle_problem, p, r_d, samples=32, seed=0)
    assert rep.verdict and rep.vacuous

    # counterexamples fail with witnesses
    from test_economy import PowerUtility

    quartic = Agent(GridFunction.constant(g1, [1.0]), PowerUtility(4, cells=1))
    rep = check_growth_condition(quartic, samples=400, seed=0)
    assert not rep.verdict and rep.witness is not None

    convex = Agent(GridFunction.constant(g1, [1.0]), PowerUtility(2, cells=1))
    rep = check_concavity(convex, samples=400, seed=0)
    assert not rep.verdict and rep.witness is not None

    repulsion = OperatorHandle(lambda f: f.with_values(-f.values))
    rep = pseudomonotonicity_probe(
        repulsion, Ball(1.0, center=(1.5, 1.5)), GridFunction.constant(g1, [1.5, 1.5]),
        pairs=400, seed=2, scale=1.5,
    )
    assert not rep.verdict and rep.witness is not None

    outward = OperatorHandle(lambda x: x.with_values(np.full_like(x.values, -1.0)))
    ray_prob = QVIProblem(
        price_set=PointwiseSimplex(),
        constraint_map=lambda p: [CapBox((np.inf,))],
        agent_operators=[outward],
        outer_map=lambda x: GridFunction(g1, np.zeros((1, 1))),
        grid=g1,
        goods=1,
        warm_starts=[GridFunction.constant(g1, [1.0])],
    )
    rep = coercivity_probe(ray_prob, PriceCurve.uniform(g1, 1), r_d=1.0, samples=64, seed=4)
    assert not rep.verdict and rep.witness is not None
    _report(7, "probe-soundness")


def test_criterion_8_projection_suite():
    rng = np.random.default_rng(88)
    g = make_grid(1.0, 4)
    p = qvex.project_pointwise_simplex(GridFunction(g, rng.random((4, 2))))
    e = GridFunction(g, 0.2 + rng.random((4, 2)))
    sets = [
        PointwiseSimplex(),
        BudgetHalfspace(p, e),
        CapBox((1.3, 0.9)),
        Ball(1.2),
        Intersection((BudgetHalfspace(p, e), CapBox((1.3, 0.9)))),
    ]
    for s in sets:
        for _ in range(1000):
            x = GridFunction(g, rng.normal(0, 2, size=(4, 2)))
            y = GridFunction(g, rng.normal(0, 2, size=(4, 2)))
            px, py = project(x, s), project(y, s)
            assert norm(project(px, s) - px) <= 1e-10
            assert norm(px - py) <= norm(x - y) + 1e-10
        for _ in range(100):
            x = GridFunction(g, rng.normal(0, 2, size=(4, 2)))
            px = project(x, s)
            scale = 1.0 + norm(x)
            for z in sample_feasible(s, px, 1.0, rng, 3):
                assert qvex.inner_product(x - px, z - px) <= 1e-10 * scale

    # Dykstra vs brute force on 1-d and 2-d instances
    g1 = make_grid(1.0, 1)
    p1 = PriceCurve(g1, np.array([[1.0]]))
    e1 = GridFunction.constant(g1, [0.5])
    parts_1d = (BudgetHalfspace(p1, e1), CapBox((1.0,)))

    def feasible_1d(c):
        return (c[:, 0] >= 0) & (c[:, 0] <= 0.5 + 1e-12)

    for v in [3.0, -1.0, 0.4, 0.77]:
        out = qvex.project_intersection(GridFunction.constant(g1, [v]), parts_1d)
        z = brute_force_project(np.array([v]), feasible_1d, [0.0], [1.0])
        assert abs(out.values[0, 0] - z[0]) <= 1e-4

    p2 = PriceCurve(g1, np.array([[0.7, 0.3]]))
    e2 = GridFunction.constant(g1, [0.5, 0.5])
    parts_2d = (BudgetHalfspace(p2, e2), CapBox((0.8, 0.9)))

    def feasible_2d(c):
        ok = (c >= 0).all(axis=1)
        ok &= (c[:, 0] <= 0.8 + 1e-12) & (c[:, 1] <= 0.9 + 1e-12)
        ok &= (c - [0.5, 0.5]) @ np.array([0.7, 0.3]) <= 1e-12
        return ok

    for _ in range(15):
        v = rng.normal(0, 1.5, size=2)
        out = qvex.project_intersection(GridFunction(g1, v[None, :]), parts_2d)
        z = brute_force_project(v, feasible_2d, [0, 0], [1.5, 1.5])
        assert np.abs(out.values[0] - z).max() <= 1e-4
    _report(8, "projection-suite")


def test_criterion_9_discretization_stability():
    coarse_grid = make_grid(1.0, 16)
    t = coarse_grid.midpoints()
    e0 = np.column_stack([1.0 + 0.4 * np.sin(2 * np.pi * t), np.full(16, 0.6)])
    e1 = np.column_stack([1.0 - 0.4 * np.sin(2 * np.pi * t), 0.4 + 0.4 * t])

    def economy_on(values_list, grid):
        agents = tuple(
            Agent(GridFunction(grid, v), LogShift((1.0, 1.2), 1.0, grid.cells))
            for v in values_list
        )
        return Economy(grid, 2, agents)

    eco16 = economy_on([e0, e1], coarse_grid)
    # the 32-cell economy carries the refinement of the same step data
    fine_grid = make_grid(1.0, 32)
    eco32 = economy_on([np.repeat(e0, 2, axis=0), np.repeat(e1, 2, axis=0)], fine_grid)

    rep16 = solve_qvi(assemble_qvi(eco16, default_caps(eco16, 1.1)), QVIParams())
    rep32 = solve_qvi(assemble_qvi(eco32, default_caps(eco32, 1.1)), QVIParams())
    assert rep16.converged and rep32.converged

    gap = norm(rep16.price.refine(2) - rep32.price)
    assert gap <= 1e-2
    _report(9, f"discretization-stability (price gap {gap:.2e})")
