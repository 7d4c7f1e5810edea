from functools import partial

import numpy as np
import pytest
from corpus import make_agent_ladder_economy
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import newton_started_logshift_demand

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
    norm,
    project,
    solve_vi_extragradient,
    survivability_check,
    utility_gradient,
    utility_value,
    vi_residual,
)
from qvex.economy import UtilitySpec, _logshift_plan, _logshift_root, agent_operator
from qvex.errors import DomainViolation, NonConvergence
from qvex.scenario import build_economy, load_scenario
from qvex.sets import (
    _SEARCH_WINDOW,
    BudgetHalfspace,
    CapBox,
    Intersection,
    PointwiseSimplex,
    _cap_budgets,
)

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

    def growth_constants(self):
        return 1.0, np.ones(self.cells)  # claims linear growth

    def check_domain(self, w):
        pass


class NaNUtility(UtilitySpec):
    """Test fixture whose cell formulas return NaN everywhere."""

    def __init__(self, cells=1):
        self.cells = cells

    def cell_values(self, w):
        return np.full(w.shape[:-1], np.nan)

    def cell_gradients(self, w):
        return np.full(w.shape, np.nan)

    def growth_constants(self):
        return 1.0, np.ones(self.cells)


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


@st.composite
def utility_blocks(draw):
    """A utility of either family with a (k, cells, m) block of plans and a
    reference plan, some of them zero, at magnitudes from 1e-6 to 1e6."""
    cells = draw(st.sampled_from([1, 16, 256]))
    goods = draw(st.integers(1, 3))
    k = draw(st.integers(1, 8))
    scale = 10.0 ** draw(st.integers(-6, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = make_grid(1.0, cells)
    weights = tuple(rng.uniform(0.1, 2.0, goods))
    if draw(st.booleans()):
        spec = Quadratic(GridFunction(g, scale * rng.uniform(0.5, 1.5, (cells, goods))), weights)
    else:
        spec = LogShift(weights, scale * rng.uniform(0.1, 2.0), cells)
    ys = scale * rng.uniform(0.0, 2.0, (k, cells, goods))
    x = scale * rng.uniform(0.0, 2.0, (cells, goods))
    zeros = draw(st.sampled_from(["none", "entries", "slice", "plan"]))
    if zeros == "entries":
        ys[rng.random(ys.shape) < 0.3] = 0.0
    elif zeros == "slice":
        ys[0] = 0.0
    elif zeros == "plan":
        x[:] = 0.0
    return spec, ys, x


@settings(max_examples=200, derandomize=True, deadline=None)
@given(utility_blocks())
def test_block_sums_match_the_cellwise_reductions(problem):
    spec, ys, x = problem
    # the family's own reduction and the base class's generic one
    for values, slopes in (spec.block_sums(ys, x), UtilitySpec.block_sums(spec, ys, x)):
        assert values.shape == slopes.shape == (len(ys),)
        for y, value, slope in zip(ys, values, slopes):
            ref_value = np.sum(spec.cell_values(y))
            ref_slope = np.sum(spec.cell_gradients(y) * (y - x))
            assert abs(value - ref_value) <= 1e-12 * (1.0 + abs(ref_value))
            assert abs(slope - ref_slope) <= 1e-12 * (1.0 + abs(ref_slope))


def test_block_sums_reject_negative_consumption():
    spec = LogShift((0.5, 1.0), 1.0, 4)
    ys = np.ones((3, 4, 2))
    ys[2, 1, 0] = -0.5
    for block_sums in (spec.block_sums, partial(UtilitySpec.block_sums, spec)):
        with pytest.raises(DomainViolation):
            block_sums(ys, np.ones((4, 2)))


def test_quadratic_gradients():
    a = quad_agent([1.0])
    np.testing.assert_allclose(
        utility_gradient(a, GridFunction.constant(G, [0.0]).values), [[1.0]]
    )
    np.testing.assert_allclose(
        utility_gradient(a, GridFunction.constant(G, [1.0]).values), [[0.0]], atol=1e-15
    )


def test_logshift_gradient_hand_value():
    a = Agent(GridFunction.constant(G, [1.0]), LogShift((2.0,), 1.0, 1))
    np.testing.assert_allclose(
        utility_gradient(a, GridFunction.constant(G, [1.0]).values), [[1.0]]
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
            grad = utility_gradient(agent, x.values)
            k = int(rng.integers(6))
            j = int(rng.integers(2))
            bump = np.zeros((6, 2))
            bump[k, j] = h
            fd = (
                utility_value(agent, x.with_values(x.values + bump))
                - utility_value(agent, x.with_values(x.values - bump))
            ) / (2 * h)
            # utility integrates over time, so the fd picks up a dt factor
            expected = grad[k, j] * g.dt
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


def test_nan_caps_and_slack_are_rejected_by_value(oracle_economy):
    eco, caps = oracle_economy
    for bad in ([np.nan, np.nan], [np.nan, caps[1]]):
        with pytest.raises(ValueError, match="nan"):
            assemble_qvi(eco, bad)
    with pytest.raises(ValueError, match="nan"):
        default_caps(eco, np.nan)


def test_endowments_feasible_at_random_prices(oracle_economy):
    eco, caps = oracle_economy
    prob = assemble_qvi(eco, caps)
    rng = np.random.default_rng(0)
    for _ in range(100):
        p = qvex.project(
            GridFunction(eco.grid, rng.random((eco.grid.cells, eco.goods))), PointwiseSimplex()
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


@pytest.mark.parametrize("check", [check_growth_condition, check_concavity])
def test_probes_fail_on_a_nan_family_with_its_sample_as_witness(check):
    g = make_grid(1.0, 2)
    agent = Agent(GridFunction.constant(g, [1.0, 1.0]), NaNUtility(cells=2))
    rep = check(agent, samples=50, seed=0)
    assert not rep.verdict
    assert np.isnan(rep.residuals["worst_margin"])
    # the first sample is already NaN, so it is the witness
    assert rep.samples_used == 1
    k, *ws = rep.witness
    assert 0 <= k < 2
    assert all(w.shape == (2,) and np.all(w >= 0.0) for w in ws)


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


@pytest.mark.parametrize(
    "weights, shift",
    [((np.nan,), np.inf), ((1.0,), np.inf), ((1.0,), np.nan), ((np.inf,), 1.0), ((1.0, -np.inf), 1.0)],
)
def test_logshift_needs_finite_positive_parameters(weights, shift):
    with pytest.raises(ValueError, match="finite positive"):
        LogShift(weights, shift, 2)


@pytest.mark.parametrize("weights", [(np.nan,), (np.inf,), (1.0, 0.0)])
def test_quadratic_needs_finite_positive_weights(weights):
    bliss = GridFunction.constant(G, [1.0] * len(weights))
    with pytest.raises(ValueError, match=r"^weights\[\d\]: must be a finite positive number"):
        Quadratic(bliss, weights)


def test_assemble_attaches_demand_only_when_every_family_has_one(oracle_economy):
    eco, caps = oracle_economy
    prob = assemble_qvi(eco, caps)
    d = qvex.PriceCurve.uniform(eco.grid, 2)
    for i, s in enumerate(prob.constraint_map(d)):
        x = GridFunction(eco.grid, prob.demand(i, d))
        assert vi_residual(x, prob.agent_operators[i], s, 1.0) <= 1e-14
    mixed = Economy(eco.grid, 2, (eco.agents[0], Agent(eco.agents[1].endowment, PowerUtility(2))))
    assert assemble_qvi(mixed, caps).demand is None


@st.composite
def demand_problems(draw):
    """An agent of either family on a capped budget set, with zero-price
    cells, zero and worthless endowments, partly infinite caps and
    magnitudes from 1e-6 to 1e6 (bliss, weights, shift, endowment and caps
    all scale, so the demand scales with them)."""
    cells = draw(st.sampled_from([1, 16, 256]))
    goods = draw(st.integers(1, 3))
    scale = 10.0 ** draw(st.integers(-6, 6))
    capped = draw(st.lists(st.booleans(), min_size=goods, max_size=goods))
    zero_prices = draw(st.booleans())
    endowment = draw(st.sampled_from(["positive", "partly zero", "zero"]))
    quadratic = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grid = make_grid(1.0, cells)
    p = rng.random((cells, goods))
    if zero_prices:
        keep = np.argmax(p, axis=1)
        p[rng.random(p.shape) < 0.4] = 0.0
        p[np.arange(cells), keep] = 1.0  # each cell stays on the simplex
    p /= p.sum(axis=1, keepdims=True)
    e = rng.random((cells, goods))
    if endowment == "partly zero":
        e[rng.random(e.shape) < 0.5] = 0.0
    elif endowment == "zero":
        e[:] = 0.0
    caps = tuple(scale * rng.uniform(0.1, 2.0) if c else np.inf for c in capped)
    if quadratic:
        q = 0.5 + rng.random(goods)
        bliss = GridFunction(grid, scale * q * rng.normal(1.0, 1.0, (cells, goods)))
        spec = Quadratic(bliss, tuple(q))
    else:
        a = scale * (0.5 + 1.5 * rng.random(goods))
        spec = LogShift(tuple(a), scale * 10.0 ** rng.uniform(-1.0, 1.0), cells)
    return Agent(GridFunction(grid, scale * e), spec), p, caps, scale


def _moduli(spec, *plans):
    """(mu, L): strong monotonicity and Lipschitz moduli of -grad u on the
    box of the given plans."""
    if isinstance(spec, Quadratic):
        return min(spec.weights), max(spec.weights)
    a = np.asarray(spec.weights)
    top = max(float(x.values.max()) for x in plans)
    return float(np.min(a / (spec.shift + top) ** 2)), float(np.max(a / spec.shift**2))


@settings(max_examples=120, derandomize=True, deadline=None)
@given(demand_problems())
def test_demand_property_matches_extragradient(problem):
    agent, p, caps, scale = problem
    e, spec = agent.endowment, agent.utility
    grid = e.grid
    if isinstance(spec, LogShift) and np.any((p == 0) & ~np.isfinite(caps)):
        # an uncapped free good: utility grows without bound, so no demand
        with pytest.raises(NonConvergence, match="unbounded"):
            spec.demand(p, e.values, caps, grid.dt)
        return
    x = GridFunction(grid, spec.demand(p, e.values, caps, grid.dt))
    K = Intersection((BudgetHalfspace(GridFunction(grid, p), e), CapBox(caps)))
    op = agent_operator(agent)

    assert x.values.min() >= 0.0
    # never overspends, measured as the kernels measure it
    assert grid.dt * float(np.vdot(p, x.values)) <= grid.dt * float(np.vdot(p, e.values))
    assert membership_residual(x, CapBox(caps)) <= 1e-12 * scale
    res = vi_residual(x, op, K, 1.0)
    assert res <= 1e-10 * (1.0 + norm(x))

    rep = solve_vi_extragradient(op, K, project(e, K), tol=1e-10 * (1.0 + norm(x)), max_iter=300)
    if not rep.converged:
        return
    # the natural-map error bound ||z - x*|| <= (1 + L) / mu ||R(z)|| at unit step
    mu, lip = _moduli(spec, x, rep.solution)
    res_eg = vi_residual(rep.solution, op, K, 1.0)
    assert norm(rep.solution - x) <= 1.01 * (1.0 + lip) / mu * (res_eg + res) + 1e-300


def _check_against_search_start(spec, p, e, caps, dt):
    """The demand agrees with the search-started reference, never
    overspends and keeps every cap, each as the kernels measure it."""
    x = spec.demand(p, e, caps, dt)
    ref = newton_started_logshift_demand(spec, p, e, caps, dt)
    size = np.sqrt(dt) * np.linalg.norm(x)
    assert np.sqrt(dt) * np.linalg.norm(x - ref) <= 1e-12 * (1.0 + size)
    assert x.min() >= 0.0
    assert dt * float(np.vdot(p, x)) <= dt * float(np.vdot(p, e))
    budgets = _cap_budgets(caps, dt)
    if budgets is not None:
        assert np.all(x.sum(axis=0) <= budgets)
    return x


@settings(max_examples=150, derandomize=True, deadline=None)
@given(demand_problems())
def test_logshift_demand_matches_the_search_started_reference(problem):
    agent, p, caps, _ = problem
    spec, e = agent.utility, agent.endowment
    assume(isinstance(spec, LogShift))
    if np.any((p == 0) & ~np.isfinite(caps)):
        for demand in (spec.demand, partial(newton_started_logshift_demand, spec)):
            with pytest.raises(NonConvergence, match="unbounded"):
                demand(p, e.values, caps, e.grid.dt)
        return
    _check_against_search_start(spec, p, e.values, caps, e.grid.dt)


def _uncapped_plan_at_root(spec, p, e):
    a = np.asarray(spec.weights)
    lam = _logshift_root(p, a, spec.shift, float(np.vdot(p, e)) * (1.0 - 0.5 * _SEARCH_WINDOW))
    return _logshift_plan(lam * p, a, spec.shift, None)


def _logshift_case(name):
    """(spec, p, e, caps, dt) of one hand-built demand, each showing one
    shape of the breakpoint root."""
    rng = np.random.default_rng(7)
    cells, dt = 8, 0.125
    p = rng.uniform(0.2, 1.0, (cells, 2))
    p /= p.sum(axis=1, keepdims=True)
    e = np.full((cells, 2), 1.0)
    spec = LogShift((3.0, 1.0), 1.0, cells)
    caps = (np.inf, np.inf)
    if name == "cap binds at the root":
        caps = (0.5 * dt * _uncapped_plan_at_root(spec, p, e)[:, 0].sum(), np.inf)
    elif name == "zero-price capped good":
        p[::2, 1] = 0.0
        p[::2, 0] = 1.0
        caps = (np.inf, 4.0)
    elif name == "one active entry":
        spec = LogShift((1.0, 1.0), 10.0, cells)
        e = np.full((cells, 2), 1e-3)
    elif name == "all entries active":
        spec = LogShift((1.0, 1.0), 0.01, cells)
        e = np.full((cells, 2), 100.0)
    elif name == "worthless endowment":
        e = np.zeros((cells, 2))
        caps = (2.0, 3.0)
    elif name == "root rounds onto the lower end":
        # one uncapped entry with a large shift: the search's lower end
        # 1 / (1e-3 + 1e3) already spends the wealth up to rounding
        spec, p, e, caps, dt = LogShift((1.0,), 1e3, 1), np.ones((1, 1)), np.full((1, 1), 1e-3), (np.inf,), 1.0
    return spec, p, e, caps, dt


@pytest.mark.parametrize(
    "name",
    [
        "cap binds at the root",
        "zero-price capped good",
        "one active entry",
        "all entries active",
        "worthless endowment",
        "root rounds onto the lower end",
    ],
)
def test_logshift_demand_matches_the_reference_on_hand_built_cases(name):
    spec, p, e, caps, dt = _logshift_case(name)
    x = _check_against_search_start(spec, p, e, caps, dt)
    if name == "cap binds at the root":
        assert _uncapped_plan_at_root(spec, p, e)[:, 0].sum() > caps[0] / dt
        assert dt * x[:, 0].sum() >= caps[0] * (1 - 1e-13)
    elif name == "zero-price capped good":
        assert np.all(x[::2, 1] > 0.0)
    elif name == "one active entry":
        assert np.count_nonzero(_uncapped_plan_at_root(spec, p, e)) == 1
    elif name == "all entries active":
        assert np.all(_uncapped_plan_at_root(spec, p, e) > 0.0)
    elif name == "worthless endowment":
        np.testing.assert_array_equal(x, 0.0)
    elif name == "root rounds onto the lower end":
        lo = 1.0 / (1e-3 + 1e3)
        assert _logshift_plan(lo * p, np.ones(1), 1e3, None)[0, 0] > 1e-3
        assert _logshift_root(p, np.ones(1), 1e3, 1e-3 * (1.0 - 0.5 * _SEARCH_WINDOW)) <= lo


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
def test_logshift_root_spends_the_target(seed, scale):
    rng = np.random.default_rng(seed)
    cells, goods = int(rng.integers(1, 40)), int(rng.integers(1, 4))
    p = rng.random((cells, goods))
    p[rng.random(p.shape) < 0.3] = 0.0
    p[0, 0] = 1.0
    a = scale * (0.5 + rng.random(goods))
    shift = scale * 10.0 ** rng.uniform(-1.0, 1.0)
    target = scale * 10.0 ** rng.uniform(-3.0, 2.0)
    lam = _logshift_root(p, a, shift, target)
    # the piecewise spend, term by term, with no sorting
    live = p > 0
    x = np.maximum(a / (lam * np.where(live, p, 1.0)) - shift, 0.0)
    spend = float(np.sum(np.where(live, p * x, 0.0)))
    assert abs(spend - target) <= 1e-12 * (target + shift * p.sum())


def _seasonal(scenario_dir):
    scn = load_scenario(scenario_dir / "sinusoid_seasonal.yaml")
    eco = build_economy(scn)
    return eco, default_caps(eco, scn.cap_slack), scn.solver


def _ladder_64(scenario_dir):
    eco = make_agent_ladder_economy(64)
    return eco, default_caps(eco, 1.1), qvex.QVIParams()


@pytest.mark.parametrize("build, outer", [(_seasonal, 10), (_ladder_64, 18)], ids=["seasonal", "ladder-64"])
def test_logshift_demand_takes_few_plan_evaluations(monkeypatch, scenario_dir, build, outer):
    calls = {"plan": 0, "demand": 0}
    plan, demand = qvex.economy._logshift_plan, LogShift.demand

    def counted_plan(*args):
        calls["plan"] += 1
        return plan(*args)

    def counted_demand(self, *args):
        calls["demand"] += 1
        return demand(self, *args)

    monkeypatch.setattr(qvex.economy, "_logshift_plan", counted_plan)
    monkeypatch.setattr(LogShift, "demand", counted_demand)
    eco, caps, params = build(scenario_dir)
    rep = qvex.solve_qvi(assemble_qvi(eco, caps), params)
    assert rep.converged and rep.iterations == outer
    # the search started by one Newton step took 11.2 and 17.0 per demand
    # here; with the root tested before the lower end it takes one
    assert calls["demand"] > 0 and calls["plan"] <= 1.5 * calls["demand"]
