import numpy as np
import pytest

import qvex
from qvex import (
    Agent,
    Economy,
    GridFunction,
    LogShift,
    Quadratic,
    assemble_qvi,
    check_concavity,
    check_growth_condition,
    default_caps,
    inner_product,
    make_grid,
    membership_residual,
    survivability_check,
    utility_gradient,
    utility_value,
)
from qvex.economy import UtilitySpec
from qvex.errors import DomainViolation

G = make_grid(1.0, 1)


def quad_agent(bliss, weights=(1.0,), endow=(1.0,), grid=G):
    m = len(bliss)
    return Agent(
        GridFunction.constant(grid, list(endow) if len(endow) == m else [endow[0]] * m),
        Quadratic(GridFunction.constant(grid, list(bliss)), tuple(weights)),
    )


class PowerUtility(UtilitySpec):
    """Test fixture u(w) = sign * sum w^k with deliberately false declared bounds."""

    def __init__(self, power, sign=1.0, cells=1):
        self.power = power
        self.sign = sign
        self.cells = cells

    def cell_values(self, w):
        return self.sign * np.sum(w**self.power, axis=1)

    def cell_gradients(self, w):
        return self.sign * self.power * w ** (self.power - 1)

    def value_at(self, cell, w):
        return float(self.sign * np.sum(np.asarray(w) ** self.power))

    def gradient_at(self, cell, w):
        return self.sign * self.power * np.asarray(w) ** (self.power - 1)

    def growth_constants(self):
        return 1.0, np.ones(self.cells)  # claims linear growth

    def check_domain(self, w):
        pass


def test_quadratic_utility_values():
    a = quad_agent([1.0])
    assert utility_value(a, GridFunction.constant(G, [0.0])) == 0.0
    assert utility_value(a, GridFunction.constant(G, [1.0])) == pytest.approx(0.5)


def test_logshift_utility_values():
    a = Agent(GridFunction.constant(G, [1.0]), LogShift((1.0,), 1.0, 1))
    assert utility_value(a, GridFunction.constant(G, [0.0])) == 0.0
    with pytest.raises(DomainViolation):
        utility_value(a, GridFunction.constant(G, [-0.5]))


def test_cell_values_take_blocks_of_plans():
    g = make_grid(2.0, 5)
    rng = np.random.default_rng(0)
    bliss = GridFunction(g, rng.uniform(1.0, 2.0, (5, 3)))
    specs = [Quadratic(bliss, (0.5, 1.0, 1.5)), LogShift((0.5, 1.0, 2.0), 1.0, 5)]
    block = rng.uniform(0.0, 2.0, (4, 5, 3))
    for spec in specs:
        values = spec.cell_values(block)
        assert values.shape == (4, 5)
        for w, v in zip(block, values):
            np.testing.assert_array_equal(v, spec.cell_values(w))
    q = np.array([0.5, 1.0, 1.5])
    expected = np.sum(bliss.values * block - 0.5 * q * block**2, axis=-1)
    np.testing.assert_allclose(specs[0].cell_values(block), expected, rtol=1e-14)
    expected = np.sum(np.array([0.5, 1.0, 2.0]) * np.log1p(block), axis=-1)
    np.testing.assert_allclose(specs[1].cell_values(block), expected, rtol=1e-14)
    with pytest.raises(DomainViolation):
        specs[1].cell_values(-block)


def test_quadratic_gradients():
    a = quad_agent([1.0])
    np.testing.assert_allclose(
        utility_gradient(a, GridFunction.constant(G, [0.0])).values, [[1.0]]
    )
    np.testing.assert_allclose(
        utility_gradient(a, GridFunction.constant(G, [1.0])).values, [[0.0]], atol=1e-15
    )


def test_logshift_gradient_hand_value():
    a = Agent(GridFunction.constant(G, [1.0]), LogShift((2.0,), 1.0, 1))
    np.testing.assert_allclose(
        utility_gradient(a, GridFunction.constant(G, [1.0])).values, [[1.0]]
    )


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(17)
    g = make_grid(1.5, 6)
    agents = [
        Agent(
            GridFunction(g, 0.5 + rng.random((6, 2))),
            Quadratic(GridFunction(g, 1.0 + rng.random((6, 2))), tuple(0.5 + rng.random(2))),
        ),
        Agent(GridFunction(g, 0.5 + rng.random((6, 2))), LogShift((1.2, 0.7), 0.8, 6)),
    ]
    h = 1e-6
    for agent in agents:
        for _ in range(50):
            x = GridFunction(g, 0.2 + rng.random((6, 2)))
            grad = utility_gradient(agent, x)
            k = int(rng.integers(6))
            j = int(rng.integers(2))
            bump = np.zeros((6, 2))
            bump[k, j] = h
            fd = (
                utility_value(agent, x.with_values(x.values + bump))
                - utility_value(agent, x.with_values(x.values - bump))
            ) / (2 * h)
            # utility integrates over time, so the fd picks up a dt factor
            expected = grad.values[k, j] * g.dt
            assert fd == pytest.approx(expected, rel=1e-6, abs=1e-9)


def test_operator_monotonicity_random_pairs():
    rng = np.random.default_rng(18)
    g = make_grid(1.0, 4)
    agents = [
        Agent(
            GridFunction.constant(g, [1.0, 1.0]),
            Quadratic(GridFunction.constant(g, [2.0, 1.5]), (1.0, 2.0)),
        ),
        Agent(GridFunction.constant(g, [1.0, 1.0]), LogShift((1.0, 2.0), 1.0, 4)),
    ]
    for agent in agents:
        op = qvex.agent_operator(agent)
        for _ in range(100):
            x = GridFunction(g, 2.0 * rng.random((4, 2)))
            y = GridFunction(g, 2.0 * rng.random((4, 2)))
            assert inner_product(op(x) - op(y), x - y) >= -1e-10


def test_default_caps_values_and_errors():
    g = make_grid(1.0, 1)
    eco = Economy(
        g,
        1,
        (
            Agent(GridFunction.constant(g, [0.5]), LogShift((1.0,), 1.0, 1)),
            Agent(GridFunction.constant(g, [0.5]), LogShift((1.0,), 1.0, 1)),
        ),
    )
    np.testing.assert_allclose(default_caps(eco, 1.1), [1.1])
    eco2 = Economy(
        g,
        1,
        (
            Agent(GridFunction.constant(g, [1.0]), LogShift((1.0,), 1.0, 1)),
            Agent(GridFunction.constant(g, [1.0]), LogShift((1.0,), 1.0, 1)),
        ),
    )
    np.testing.assert_allclose(default_caps(eco2, 1.05), [2.1])
    with pytest.raises(ValueError):
        default_caps(eco, 1.0)
    zero_eco = Economy(g, 1, (Agent(GridFunction.zeros(g, 1), LogShift((1.0,), 1.0, 1)),))
    with pytest.raises(ValueError):
        default_caps(zero_eco)


def test_assemble_rejects_non_strict_caps():
    g = make_grid(1.0, 1)
    eco = Economy(g, 1, (Agent(GridFunction.constant(g, [1.0]), LogShift((1.0,), 1.0, 1)),))
    with pytest.raises(ValueError):
        assemble_qvi(eco, [1.0])  # equals the aggregate integral: not strict
    assemble_qvi(eco, [1.0 + 1e-6])


def test_endowments_feasible_at_random_prices(oracle_economy):
    eco, caps = oracle_economy
    prob = assemble_qvi(eco, caps)
    rng = np.random.default_rng(0)
    for _ in range(100):
        p = qvex.project_pointwise_simplex(
            GridFunction(eco.grid, rng.random((eco.grid.cells, eco.goods)))
        )
        for agent, s in zip(eco.agents, prob.constraint_map(p)):
            assert membership_residual(agent.endowment, s) <= 1e-12


def test_growth_condition_passes_on_supported_families():
    g = make_grid(1.0, 4)
    quad = Agent(
        GridFunction.constant(g, [1.0]), Quadratic(GridFunction.constant(g, [1.0]), (1.0,))
    )
    log = Agent(GridFunction.constant(g, [1.0]), LogShift((1.5,), 0.5, 4))
    assert check_growth_condition(quad, samples=400, seed=0).verdict
    assert check_growth_condition(log, samples=400, seed=0).verdict


def test_growth_condition_fails_on_quartic_fixture():
    g = make_grid(1.0, 2)
    bad = Agent(GridFunction.constant(g, [1.0]), PowerUtility(4, sign=1.0, cells=2))
    rep = check_growth_condition(bad, samples=400, seed=0)
    assert not rep.verdict
    assert rep.witness is not None
    k, w = rep.witness
    assert np.linalg.norm(w) > 1.0  # cubic gradient beats the linear bound at large w


def test_concavity_passes_on_supported_families():
    g = make_grid(1.0, 2)
    quad = Agent(
        GridFunction.constant(g, [1.0, 2.0]),
        Quadratic(GridFunction.constant(g, [1.0, 1.0]), (1.0, 0.5)),
    )
    log = Agent(GridFunction.constant(g, [1.0, 1.0]), LogShift((1.0, 2.0), 1.0, 2))
    assert check_concavity(quad, samples=400, seed=1).verdict
    assert check_concavity(log, samples=400, seed=1).verdict


def test_concavity_fails_on_convex_fixture():
    g = make_grid(1.0, 2)
    bad = Agent(GridFunction.constant(g, [1.0]), PowerUtility(2, sign=1.0, cells=2))
    rep = check_concavity(bad, samples=400, seed=1)
    assert not rep.verdict
    assert rep.witness is not None


def test_survivability_check():
    g = make_grid(1.0, 3)
    good = Agent(GridFunction.constant(g, [0.5]), LogShift((1.0,), 1.0, 3))
    vals = np.full((3, 1), 0.5)
    vals[1, 0] = 0.0
    zero_cell = Agent(GridFunction(g, vals), LogShift((1.0,), 1.0, 3))
    tiny = Agent(GridFunction.constant(g, [1e-15]), LogShift((1.0,), 1.0, 3))
    eco = Economy(g, 1, (good, zero_cell, tiny))
    assert survivability_check(eco) == [True, False, False]


def test_economy_validation():
    g = make_grid(1.0, 2)
    with pytest.raises(ValueError):
        Economy(g, 1, ())
    with pytest.raises(ValueError):
        Agent(GridFunction.constant(g, [-0.1]), LogShift((1.0,), 1.0, 2))
