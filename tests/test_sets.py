import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qvex
from oracles import brute_force_project
from qvex import (
    Ball,
    BudgetHalfspace,
    CapBox,
    GridFunction,
    Intersection,
    PointwiseSimplex,
    PriceCurve,
    inner_product,
    make_grid,
    membership_residual,
    norm,
    project,
    project_budget_halfspace,
    project_cap_box,
    project_intersection,
    project_pointwise_simplex,
)
from qvex.errors import DegenerateSet, NonConvergence
from qvex.sets import _dykstra_values, _project_budget_capbox, _project_budget_cone, _spend


def grid1():
    return make_grid(1.0, 1)


def gf(g, rows):
    return GridFunction(g, np.asarray(rows, dtype=float))


# --- simplex ---


def test_simplex_projection_idempotent_on_members():
    g = make_grid(1.0, 3)
    p = PriceCurve(g, np.array([[0.2, 0.8], [0.5, 0.5], [1.0, 0.0]]))
    out = project_pointwise_simplex(p)
    np.testing.assert_allclose(out.values, p.values, atol=1e-15)


def test_simplex_projection_vertex():
    out = project_pointwise_simplex(gf(grid1(), [[2.0, 0.0]]))
    np.testing.assert_allclose(out.values, [[1.0, 0.0]], atol=1e-15)
    # normal-cone check at the vertex: <q - p, z - p> <= 0 for simplex z
    q = np.array([2.0, 0.0])
    p = out.values[0]
    for z in [np.array([0.0, 1.0]), np.array([0.5, 0.5]), np.array([1.0, 0.0])]:
        assert (q - p) @ (z - p) <= 1e-12


def test_simplex_projection_interior_point_matches_brute_force():
    out = project_pointwise_simplex(gf(grid1(), [[0.8, 0.6]]))
    np.testing.assert_allclose(out.values, [[0.6, 0.4]], atol=1e-12)
    thetas = np.arange(0.0, 1.0 + 1e-4, 1e-4)
    cand = np.column_stack([thetas, 1.0 - thetas])
    best = cand[np.argmin(np.sum((cand - [0.8, 0.6]) ** 2, axis=1))]
    assert np.abs(out.values[0] - best).max() <= 1e-4


def test_simplex_rows_sum_exactly_one():
    rng = np.random.default_rng(3)
    g = make_grid(1.0, 10)
    out = project_pointwise_simplex(GridFunction(g, rng.normal(size=(10, 4))))
    np.testing.assert_allclose(out.values.sum(axis=1), 1.0, atol=1e-15)
    assert out.values.min() >= 0.0


# --- budget halfspace ---


def test_budget_projection_fixed_points():
    g = grid1()
    p = PriceCurve(g, np.array([[0.5, 0.5]]))
    e = gf(g, [[1.0, 1.0]])
    np.testing.assert_allclose(project_budget_halfspace(e, p, e).values, e.values)
    interior = gf(g, [[0.5, 0.5]])
    np.testing.assert_allclose(project_budget_halfspace(interior, p, e).values, interior.values)


def test_budget_projection_closed_form():
    g = grid1()
    p = PriceCurve(g, np.array([[1.0]]))
    e = gf(g, [[1.0]])
    out = project_budget_halfspace(gf(g, [[3.0]]), p, e)
    np.testing.assert_allclose(out.values, [[1.0]], atol=1e-14)
    assert inner_product(p, out - e) <= 1e-12


def test_budget_projection_rejects_zero_price():
    g = grid1()
    zero_p = gf(g, [[0.0]])
    with pytest.raises(DegenerateSet):
        project_budget_halfspace(gf(g, [[3.0]]), zero_p, gf(g, [[1.0]]))


# --- cap box ---


def test_cap_box_examples():
    g = grid1()
    np.testing.assert_allclose(project_cap_box(gf(g, [[0.0]]), [2.0]).values, [[0.0]])
    member = gf(g, [[1.5]])
    np.testing.assert_allclose(project_cap_box(member, [2.0]).values, member.values)
    np.testing.assert_allclose(project_cap_box(gf(g, [[5.0]]), [2.0]).values, [[2.0]])
    with pytest.raises(ValueError):
        CapBox((0.0,))


def test_cap_box_water_filling_matches_brute_force():
    g = make_grid(1.0, 2)
    x = gf(g, [[2.0], [0.5]])
    out = project_cap_box(x, [1.0])

    def feasible(c):
        return (c >= 0).all(axis=1) & (0.5 * c.sum(axis=1) <= 1.0 + 1e-12)

    z = brute_force_project(np.array([2.0, 0.5]), feasible, [0, 0], [3, 3])
    assert np.abs(out.values[:, 0] - z).max() <= 1e-4


def test_cap_box_infinite_caps_is_plain_cone():
    g = make_grid(1.0, 3)
    x = gf(g, [[-1.0, 2.0], [0.5, -0.2], [3.0, 0.0]])
    out = project_cap_box(x, [np.inf, np.inf])
    np.testing.assert_allclose(out.values, np.maximum(x.values, 0.0))


# --- ball ---


def test_ball_projection_scales_to_radius():
    g = grid1()
    x = gf(g, [[3.0, 4.0]])
    out = project(x, Ball(1.0))
    assert norm(out) == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(out.values, [[0.6, 0.8]], atol=1e-12)


def test_ball_with_center_gives_intervals():
    # center 1.5, radius 0.5 in one dimension is the interval [1, 2]
    g = grid1()
    s = Ball(0.5, center=(1.5,))
    np.testing.assert_allclose(project(gf(g, [[3.0]]), s).values, [[2.0]])
    np.testing.assert_allclose(project(gf(g, [[1.2]]), s).values, [[1.2]])


# --- intersection / Dykstra ---


def test_intersection_fixed_point_and_single_part():
    g = grid1()
    p = PriceCurve(g, np.array([[1.0]]))
    e = gf(g, [[0.5]])
    half = BudgetHalfspace(p, e)
    x = gf(g, [[3.0]])
    only_half = project_intersection(x, [half])
    np.testing.assert_allclose(
        only_half.values, project_budget_halfspace(x, p, e).values, atol=1e-12
    )
    member = gf(g, [[0.2]])
    out = project_intersection(member, [half, CapBox((1.0,))])
    np.testing.assert_allclose(out.values, member.values, atol=1e-12)


def test_intersection_1d_example():
    # cap r=1 gives x <= 1; budget p=1, e=0.5 gives x <= 0.5; both with x >= 0
    g = grid1()
    p = PriceCurve(g, np.array([[1.0]]))
    e = gf(g, [[0.5]])
    out = project_intersection(gf(g, [[3.0]]), [BudgetHalfspace(p, e), CapBox((1.0,))])
    np.testing.assert_allclose(out.values, [[0.5]], atol=1e-10)


def test_intersection_matches_brute_force_2d():
    g = grid1()
    rng = np.random.default_rng(11)
    p = PriceCurve(g, np.array([[0.7, 0.3]]))
    e = gf(g, [[0.5, 0.5]])
    parts = (BudgetHalfspace(p, e), CapBox((0.8, 0.9)))

    def feasible(c):
        ok = (c >= 0).all(axis=1)
        ok &= c[:, 0] <= 0.8 + 1e-12
        ok &= c[:, 1] <= 0.9 + 1e-12
        ok &= (c - [0.5, 0.5]) @ np.array([0.7, 0.3]) <= 1e-12
        return ok

    for _ in range(10):
        v = rng.normal(0, 1.5, size=2)
        out = project_intersection(gf(g, [v]), parts)
        z = brute_force_project(v, feasible, [0, 0], [1.5, 1.5])
        assert np.abs(out.values[0] - z).max() <= 1e-4


def test_general_dykstra_matches_exact_dual_path():
    # same intersection projected by general Dykstra and by the exact
    # budget multiplier root-find used on the canonical pattern
    rng = np.random.default_rng(12)
    g = make_grid(1.0, 5)
    p = qvex.project_pointwise_simplex(GridFunction(g, rng.random((5, 2))))
    e = GridFunction(g, 0.1 + rng.random((5, 2)))
    parts = (BudgetHalfspace(p, e), CapBox((1.4, 1.1)))
    S = Intersection(parts)
    for _ in range(50):
        v = rng.normal(0, 2, size=(5, 2))
        exact = qvex.sets.project_values(v, S, g)
        dyk = _dykstra_values(v, parts, g, 1e-12, 200000)
        assert np.sqrt(g.dt) * np.linalg.norm(exact - dyk) <= 1e-9


def test_dykstra_budget_exhaustion_carries_iterate_and_residuals():
    g = grid1()
    p = PriceCurve(g, np.array([[0.9, 0.1]]))
    e = gf(g, [[0.5, 0.5]])
    parts = [BudgetHalfspace(p, e), CapBox((0.8, 0.9)), Ball(2.0)]
    with pytest.raises(NonConvergence) as err:
        project_intersection(gf(g, [[4.0, -2.0]]), parts, tol=1e-12, max_iter=1)
    assert err.value.last_iterate is not None
    assert err.value.residuals


# --- exact budget-and-caps kernel ---


def _budget_caps(v, p, e, caps):
    v, p, e = (np.asarray(a, dtype=float) for a in (v, p, e))
    g = make_grid(1.0, v.shape[0])
    parts = (BudgetHalfspace(GridFunction(g, p), GridFunction(g, e)), CapBox(caps))
    return GridFunction(g, v), parts


# inputs on which a regula falsi search with one fixed end stopped far from
# the projection, leaving part of the budget unspent
STALLED_SEARCH_CASES = {
    "1x3-partly-capped": (
        [[0.6400173555880371, -1.7265727032160125, 5.229284213856759]],
        [[0.04319191379620358, 0.336142720277157, 0.6206653659266395]],
        [[0.18470400177101498, 1.5485296242847648, 1.5212885753583472]],
        (2.9055995902831437, np.inf, 2.3371374852615077),
    ),
    "4x1-unit-price": (
        [[0.007547284291567869], [0.0052045484967914], [0.009762811051360636], [0.011893458759835846]],
        np.ones((4, 1)),
        [[0.0026229568520916226], [8.74865179592591e-06], [0.0012152945017450023], [2.957639051788233e-05]],
        (0.0009719747178323821,),
    ),
}


@pytest.mark.parametrize("case", sorted(STALLED_SEARCH_CASES))
def test_budget_capbox_reaches_dykstra_where_the_search_stalled(case):
    x, parts = _budget_caps(*STALLED_SEARCH_CASES[case])
    exact = project(x, Intersection(parts))
    dyk = project_intersection(x, parts, tol=1e-13)
    assert abs(norm(exact - x) - norm(dyk - x)) <= 1e-9 * norm(dyk - x)
    budget = parts[0]
    wealth = inner_product(budget.price, budget.endowment)
    assert abs(inner_product(budget.price, exact - budget.endowment)) <= 1e-12 * (1.0 + wealth)


@st.composite
def budget_caps_problems(draw):
    """Budget-and-caps projections with zero prices, zero endowments, partly
    infinite caps and magnitudes from 1e-6 to 1e6."""
    cells = draw(st.sampled_from([1, 2, 16]))
    goods = draw(st.integers(1, 3))
    scale = 10.0 ** draw(st.integers(-6, 6))
    capped = draw(st.lists(st.booleans(), min_size=goods, max_size=goods))
    zero_prices = draw(st.booleans())
    zero_endowments = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = rng.random((cells, goods))
    if zero_prices:
        keep = np.argmax(p, axis=1)
        p[rng.random(p.shape) < 0.4] = 0.0
        p[np.arange(cells), keep] = 1.0  # each cell stays on the simplex
    p /= p.sum(axis=1, keepdims=True)
    e = rng.random((cells, goods))
    if zero_endowments:
        e[rng.random(e.shape) < 0.5] = 0.0
        e[0, np.argmax(p[0])] = 1.0  # zero wealth leaves only the origin, where Dykstra crawls
    v = e + rng.normal(0.0, 2.0, size=e.shape) + rng.uniform(0.0, 2.0)
    caps = tuple(rng.uniform(0.1, 2.0) if c else np.inf for c in capped)
    return v, p, e, caps, scale


@settings(max_examples=200, derandomize=True, deadline=None)
@given(budget_caps_problems())
def test_budget_capbox_property_matches_dykstra(problem):
    v, p, e, caps, scale = problem
    # the kernel sees the scaled problem; Dykstra's absolute tolerance needs
    # the unit one, and the projection scales with it
    x, parts = _budget_caps(scale * v, p, scale * e, tuple(scale * c for c in caps))
    z = project(x, Intersection(parts))
    unit_x, unit_parts = _budget_caps(v, p, e, caps)
    unit_z = z * (1.0 / scale)
    dt = x.grid.dt

    assert z.values.min() >= 0.0
    assert membership_residual(unit_z, unit_parts[1]) <= 1e-12
    # the search never overspends, measured as the kernel measures it
    assert dt * float(np.vdot(p, z.values)) <= dt * float(np.vdot(p, scale * e))

    dyk = project_intersection(unit_x, unit_parts, tol=1e-12, max_iter=200000)
    assert abs(norm(unit_z - unit_x) - norm(dyk - unit_x)) <= 1e-9 * (1.0 + norm(unit_x))

    rng = np.random.default_rng(0)
    feasible = qvex.sample_feasible(Intersection(unit_parts), unit_z, 1.0 + norm(unit_x), rng, 10)
    for y in [unit_z * 0.0, *feasible]:
        assert inner_product(unit_x - unit_z, y - unit_z) <= 1e-9 * (1.0 + norm(unit_x)) ** 2


def _search_input(rng, cells, goods, capped):
    """Prices on the per-cell simplex and endowments on (0.2, 1.2).  Capped:
    demand one to three times the endowment, caps within 30 % of its
    integral, as in an extragradient step of a solve.  Uncapped: a Gaussian
    cloud around the endowment, as in certification sampling."""
    dt = 1.0 / cells
    p = rng.random((cells, goods))
    p /= p.sum(axis=1, keepdims=True)
    e = 0.2 + rng.random((cells, goods))
    if capped:
        v = e * rng.uniform(1.0, 3.0, size=e.shape)
        caps = tuple(dt * v.sum(axis=0) * rng.uniform(0.7, 1.3, size=goods))
    else:
        v = e + rng.normal(0.0, 1.0 + np.sqrt(dt) * np.linalg.norm(e), size=e.shape)
        caps = (np.inf,) * goods
    return v, p, e, caps, dt


@pytest.mark.parametrize("cells, goods, capped", [(16, 2, True), (1024, 3, False)])
def test_budget_capbox_search_evaluations_per_projection(monkeypatch, cells, goods, capped):
    calls = 0
    water_fill = qvex.sets._water_fill

    def counting(v, budgets):
        nonlocal calls
        calls += 1
        return water_fill(v, budgets)

    monkeypatch.setattr(qvex.sets, "_water_fill", counting)
    rng = np.random.default_rng(0)
    count = 300
    for _ in range(count):
        _project_budget_capbox(*_search_input(rng, cells, goods, capped))
    assert calls / count <= 8.0


def test_budget_capbox_search_exhaustion_raises(monkeypatch):
    monkeypatch.setattr(qvex.sets, "_MAX_SEARCH", 1)
    x, parts = _budget_caps(*STALLED_SEARCH_CASES["1x3-partly-capped"])
    with pytest.raises(NonConvergence) as err:
        project(x, Intersection(parts))
    assert err.value.last_iterate is not None
    assert err.value.residuals


def test_dykstra_waits_for_the_corrections_to_settle():
    # the capped-cone projection of x already meets the budget, so it is the
    # answer; one sweep in, Dykstra's iterate stands still at another point
    # while its corrections keep moving
    g = make_grid(1.0, 2)
    p = PriceCurve(g, np.array([[0.14409965591660678, 0.0, 0.8559003440833932],
                                [0.2532325497720247, 0.0, 0.7467674502279753]]))
    e = gf(g, [[0.3916355378830422, 0.5416685571154368, 0.12669424370685267],
               [0.05216658011532394, 0.2797966407293334, 0.7170896493045754]])
    caps = (np.inf, 0.13068587597538248, 0.4038495931413112)
    x = gf(g, [[-0.10293392144739533, -0.4867560704684546, 2.846366103254284],
               [0.1788141143439772, 2.3120364024720708, 3.9648186452233736]])
    capped = project_cap_box(x, caps)
    assert inner_product(p, capped - e) < 0.0
    out = project_intersection(x, [BudgetHalfspace(p, e), CapBox(caps)], tol=1e-12)
    assert norm(out - capped) <= 1e-10


def test_membership_residual_examples():
    g = grid1()
    assert membership_residual(gf(g, [[0.7, 0.3]]), PointwiseSimplex()) == 0.0
    assert membership_residual(gf(g, [[0.7, 0.7]]), PointwiseSimplex()) == pytest.approx(0.4)
    assert membership_residual(gf(g, [[3.0]]), CapBox((2.0,))) == pytest.approx(1.0)
    p = PriceCurve(g, np.array([[1.0]]))
    e = gf(g, [[0.5]])
    assert membership_residual(gf(g, [[0.2]]), BudgetHalfspace(p, e)) == 0.0


# --- shared projection properties ---


def _random_cases(seed):
    rng = np.random.default_rng(seed)
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
    return rng, g, sets


@pytest.mark.parametrize("set_index", range(5))
def test_projection_idempotent(set_index):
    rng, g, sets = _random_cases(21)
    s = sets[set_index]
    for _ in range(200):
        x = GridFunction(g, rng.normal(0, 2, size=(4, 2)))
        px = project(x, s)
        ppx = project(px, s)
        assert norm(ppx - px) <= 1e-10


@pytest.mark.parametrize("set_index", range(5))
def test_projection_nonexpansive(set_index):
    rng, g, sets = _random_cases(22)
    s = sets[set_index]
    for _ in range(200):
        x = GridFunction(g, rng.normal(0, 2, size=(4, 2)))
        y = GridFunction(g, rng.normal(0, 2, size=(4, 2)))
        assert norm(project(x, s) - project(y, s)) <= norm(x - y) + 1e-10


@pytest.mark.parametrize("set_index", range(5))
def test_projection_variational_characterization(set_index):
    rng, g, sets = _random_cases(23)
    s = sets[set_index]
    for _ in range(100):
        x = GridFunction(g, rng.normal(0, 2, size=(4, 2)))
        px = project(x, s)
        scale = 1.0 + norm(x)
        for z in qvex.sample_feasible(s, px, 1.0, rng, 5):
            assert inner_product(x - px, z - px) <= 1e-10 * scale


def test_sample_feasible_returns_members():
    rng, g, sets = _random_cases(24)
    for s in sets:
        center = project(GridFunction(g, rng.normal(size=(4, 2))), s)
        for y in qvex.sample_feasible(s, center, 2.0, rng, 20):
            assert membership_residual(y, s) <= 1e-9


def test_sample_feasible_matches_per_sample_draws(monkeypatch):
    # block draws give the generator stream of one draw per sample, and every
    # set but the uncapped budget cone projects each slice as `project` does
    rng, g, sets = _random_cases(25)
    p, e = sets[1].price, sets[1].endowment
    sets += [
        Intersection((BudgetHalfspace(p, e), CapBox((1.3, 0.9)), Ball(1.5))),
        Intersection((BudgetHalfspace(p, e), CapBox((np.inf, np.inf)))),
    ]
    center = GridFunction(g, rng.normal(size=(4, 2)))
    for chunk in (qvex.sets._SAMPLE_CHUNK, 1):
        monkeypatch.setattr(qvex.sets, "_SAMPLE_CHUNK", chunk)
        for s in sets:
            batched_rng, loop_rng = np.random.default_rng(7), np.random.default_rng(7)
            batched = qvex.sample_feasible(s, center, 2.0, batched_rng, 30)
            noises = [loop_rng.normal(0.0, 2.0, size=(4, 2)) for _ in range(30)]
            loop = [project(center.with_values(center.values + n), s) for n in noises]
            assert batched_rng.bit_generator.state == loop_rng.bit_generator.state
            assert [type(y) for y in batched] == [type(y) for y in loop]
            if s is sets[-1]:
                for y, ref in zip(batched, loop):
                    assert norm(y - ref) <= 1e-12 * (1.0 + norm(ref))
                    assert inner_product(p, y - e) <= 0.0
            else:
                assert all(np.array_equal(y.values, ref.values) for y, ref in zip(batched, loop))


# --- batched uncapped budget-cone kernel ---


@st.composite
def budget_cone_blocks(draw):
    """Blocks of points to project onto one uncapped budget set, with zero
    prices, zero-wealth endowments and magnitudes from 1e-6 to 1e6."""
    cells = draw(st.sampled_from([1, 2, 16, 1024]))
    goods = draw(st.integers(1, 3))
    scale = 10.0 ** draw(st.integers(-6, 6))
    zero_prices = draw(st.booleans())
    zero_wealth = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = rng.random((cells, goods))
    if zero_prices:
        keep = np.argmax(p, axis=1)
        p[rng.random(p.shape) < 0.4] = 0.0
        p[np.arange(cells), keep] = 1.0
    p /= p.sum(axis=1, keepdims=True)
    e = rng.random((cells, goods))
    if zero_wealth:
        e[p > 0] = 0.0
    V = e + rng.normal(0.0, 2.0, size=(5, cells, goods)) + rng.uniform(0.0, 2.0)
    return scale * V, p, scale * e


@settings(max_examples=200, derandomize=True, deadline=None)
@given(budget_cone_blocks())
def test_budget_cone_property_matches_budget_capbox(problem):
    V, p, e = problem
    cells, goods = p.shape
    g = make_grid(1.0, cells)
    dt = g.dt
    Z = _project_budget_cone(V, p, e, dt)
    wealth = dt * float(np.vdot(p, e))
    budget = BudgetHalfspace(GridFunction(g, p), GridFunction(g, e))

    assert Z.min() >= 0.0
    assert np.all(_spend(Z, p, dt) <= wealth)
    rng = np.random.default_rng(0)
    for v, z in zip(V, Z):
        assert dt * float(np.vdot(p, z)) <= wealth
        ref = _project_budget_capbox(v, p, e, (np.inf,) * goods, dt)
        z_norm = np.sqrt(dt) * np.linalg.norm(z)
        assert np.sqrt(dt) * np.linalg.norm(z - ref) <= 1e-12 * (1.0 + z_norm)
        # the VI inequality of the projection at feasible points
        zf = GridFunction(g, z)
        s = Intersection((budget, CapBox((np.inf,) * goods)))
        scale = 1.0 + np.sqrt(dt) * np.linalg.norm(v)
        for y in [zf * 0.0, *qvex.sample_feasible(s, zf, scale, rng, 5)]:
            assert inner_product(GridFunction(g, v) - zf, y - zf) <= 1e-9 * scale**2


def test_budget_cone_exhaustion_raises(monkeypatch):
    monkeypatch.setattr(qvex.sets, "_MAX_NEWTON", 1)
    rng = np.random.default_rng(3)
    p = rng.random((1024, 3))
    p /= p.sum(axis=1, keepdims=True)
    e = 0.2 + rng.random((1024, 3))
    V = e + rng.normal(0.0, 3.0, size=(4, 1024, 3))
    with pytest.raises(NonConvergence) as err:
        _project_budget_cone(V, p, e, 1.0 / 1024)
    assert err.value.last_iterate is not None
    assert err.value.residuals["budget_gap"] > 0.0
