"""Degenerate and near-degenerate inputs the main suites do not reach."""

import numpy as np
import pytest

import qvex
from corpus import make_random_economy
from qvex import (
    Agent,
    BudgetHalfspace,
    CapBox,
    Economy,
    GridFunction,
    Intersection,
    LogShift,
    PriceCurve,
    QVIParams,
    Quadratic,
    assemble_qvi,
    certify_equilibrium,
    default_caps,
    default_radius_schedule,
    make_grid,
    membership_residual,
    norm,
    project,
    solve_qvi,
    solve_qvi_truncated,
)


def test_zero_wealth_projection_masks_priced_goods():
    # an agent with nothing to sell can only afford free goods
    g = make_grid(1.0, 2)
    p = PriceCurve(g, np.array([[1.0, 0.0], [1.0, 0.0]]))
    e = GridFunction.zeros(g, 2)
    S = Intersection((BudgetHalfspace(p, e), CapBox((2.0, 0.5))))
    x = GridFunction(g, np.array([[3.0, 1.5], [0.5, -1.0]]))
    out = project(x, S)
    assert membership_residual(out, S) <= 1e-12
    np.testing.assert_allclose(out.values[:, 0], 0.0, atol=1e-15)  # priced good vanishes
    # free good water-fills to its integral cap: max(0, v - 0.5) hits 0.5 * sum = 0.5
    np.testing.assert_allclose(out.values[:, 1], [1.0, 0.0], atol=1e-12)


def test_economy_with_destitute_agent_still_clears():
    g = make_grid(1.0, 1)
    rich = Agent(GridFunction.constant(g, [1.0, 1.0]), LogShift((1.0, 1.0), 1.0, 1))
    poor = Agent(GridFunction.zeros(g, 2), LogShift((1.0, 1.0), 1.0, 1))
    eco = Economy(g, 2, (rich, poor))
    prob = assemble_qvi(eco, default_caps(eco, 1.1))
    rep = solve_qvi(prob, QVIParams())
    assert rep.converged
    blocks = rep.agent_allocations()
    np.testing.assert_allclose(blocks[1].values, 0.0, atol=1e-7)  # no wealth, no demand
    cert = certify_equilibrium(eco, rep.price, blocks, tol=1e-6, seed=0)
    assert cert.verdict
    assert qvex.survivability_check(eco) == [True, False]


def test_tight_cap_slack_still_certifies():
    g = make_grid(1.0, 2)
    a1 = Agent(
        GridFunction.constant(g, [1.0, 0.3]),
        Quadratic(GridFunction.constant(g, [2.0, 1.2]), (1.0, 1.0)),
    )
    a2 = Agent(GridFunction.constant(g, [0.3, 1.0]), LogShift((1.0, 1.5), 1.0, 2))
    eco = Economy(g, 2, (a1, a2))
    prob = assemble_qvi(eco, default_caps(eco, 1.05))
    rep = solve_qvi(prob, QVIParams())
    assert rep.converged
    cert = certify_equilibrium(eco, rep.price, rep.agent_allocations(), tol=1e-6, seed=0)
    assert cert.verdict


def _scaled(eco, c):
    """The economy in units c times larger: endowments, bliss and shift scale by c."""
    agents = []
    for a in eco.agents:
        spec = a.utility
        if isinstance(spec, Quadratic):
            spec = Quadratic(c * spec.bliss, spec.weights)
        else:
            spec = LogShift(spec.weights, c * spec.shift, spec.cells)
        agents.append(Agent(c * a.endowment, spec))
    return Economy(eco.grid, eco.goods, tuple(agents))


@pytest.mark.parametrize("scale", [1e-3, 1e3])
@pytest.mark.parametrize("seed", [5, 16])
def test_scaled_corpus_economy_certifies(seed, scale):
    # both step sizes follow measured ratios (the inner one starts from a
    # Lipschitz estimate), so a change of units costs few extra iterations;
    # fixed start steps would be far off at either scale
    eco = _scaled(make_random_economy(seed), scale)
    rep = solve_qvi(assemble_qvi(eco, default_caps(eco, 1.1)), QVIParams(seed=seed))
    assert rep.converged, rep.message
    assert rep.iterations <= 200
    cert = certify_equilibrium(eco, rep.price, rep.agent_allocations(), tol=1e-6, seed=seed)
    assert cert.verdict, cert.residuals


def test_default_radius_schedule_doubles_from_caps(oracle_problem):
    radii = default_radius_schedule(oracle_problem)
    base = 1.0 + sum(oracle_problem.caps)
    assert radii[0] == pytest.approx(base)
    assert all(b == pytest.approx(2 * a) for a, b in zip(radii, radii[1:]))


def test_truncated_solve_with_default_schedule(oracle_problem, skewed_start):
    params = QVIParams(start_price=skewed_start)
    rep = solve_qvi_truncated(oracle_problem, None, params)
    assert rep.converged
    # caps bound the feasible region, so the first default radius suffices
    assert rep.truncation_radius_used == pytest.approx(1.0 + sum(oracle_problem.caps))
    plain = solve_qvi(oracle_problem, params)
    assert np.abs(rep.price.values - plain.price.values).max() <= 1e-6


def test_free_good_drives_price_to_simplex_vertex():
    # nobody wants good 2 beyond satiation: its price falls to zero and the
    # market clears with strict excess supply of the free good
    g = make_grid(1.0, 1)
    a1 = Agent(
        GridFunction.constant(g, [1.0, 1.0]),
        Quadratic(GridFunction.constant(g, [2.0, 0.3]), (1.0, 1.0)),
    )
    a2 = Agent(
        GridFunction.constant(g, [1.0, 1.0]),
        Quadratic(GridFunction.constant(g, [1.8, 0.2]), (1.0, 1.0)),
    )
    eco = Economy(g, 2, (a1, a2))
    rep = solve_qvi(assemble_qvi(eco, default_caps(eco, 1.1)), QVIParams())
    assert rep.converged
    np.testing.assert_allclose(rep.price.values, [[1.0, 0.0]], atol=1e-8)
    cert = certify_equilibrium(eco, rep.price, rep.agent_allocations(), tol=1e-6, seed=0)
    assert cert.verdict
    assert cert.residuals["clearing[1]"] < -1.0  # strict excess supply of the free good


def test_single_cell_single_good_degenerate_simplex():
    # m = 1 collapses the price set to the point p = 1
    g = make_grid(1.0, 1)
    eco = Economy(g, 1, (Agent(GridFunction.constant(g, [0.7]), LogShift((1.0,), 1.0, 1)),))
    prob = assemble_qvi(eco, default_caps(eco, 1.1))
    rep = solve_qvi(prob, QVIParams())
    assert rep.converged
    np.testing.assert_allclose(rep.price.values, 1.0)
    np.testing.assert_allclose(rep.allocation.values, 0.7, atol=1e-8)


def test_refined_economy_gives_refined_equilibrium():
    # piecewise-constant data refined 2x yields the refined price curve,
    # since every operation commutes with cell splitting
    g = make_grid(1.0, 4)
    rng = np.random.default_rng(3)
    e_vals = 0.4 + rng.random((4, 2))
    eco = Economy(
        g, 2, (Agent(GridFunction(g, e_vals), LogShift((1.0, 1.3), 1.0, 4)),)
    )
    rep = solve_qvi(assemble_qvi(eco, default_caps(eco, 1.1)), QVIParams())

    g2 = make_grid(1.0, 8)
    eco2 = Economy(
        g2, 2, (Agent(GridFunction(g2, np.repeat(e_vals, 2, axis=0)), LogShift((1.0, 1.3), 1.0, 8)),)
    )
    rep2 = solve_qvi(assemble_qvi(eco2, default_caps(eco2, 1.1)), QVIParams())
    assert rep.converged and rep2.converged
    assert norm(rep.price.refine(2) - rep2.price) <= 1e-6
