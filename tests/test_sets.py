import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qvex
from oracles import (
    brute_force_project,
    compacting_budget_cone,
    dykstra_values,
    project_intersection,
    sample_feasible,
)
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
)
from qvex.errors import DegenerateSet, NonConvergence
from qvex.economy import LogShift, _logshift_plan
from qvex.sets import (
    _SEARCH_WINDOW,
    _cap_budgets,
    _project_budget_capbox,
    _project_budget_capbox_ball,
    _project_budget_cone,
    _spend,
    _water_fill,
)


def grid1():
    return make_grid(1.0, 1)


def gf(g, rows):
    return GridFunction(g, np.asarray(rows, dtype=float))


# --- simplex ---


def test_simplex_projection_idempotent_on_members():
    g = make_grid(1.0, 3)
    p = PriceCurve(g, np.array([[0.2, 0.8], [0.5, 0.5], [1.0, 0.0]]))
    out = project(p, PointwiseSimplex())
    np.testing.assert_allclose(out.values, p.values, atol=1e-15)


def test_simplex_projection_vertex():
    out = project(gf(grid1(), [[2.0, 0.0]]), PointwiseSimplex())
    np.testing.assert_allclose(out.values, [[1.0, 0.0]], atol=1e-15)
    # normal-cone check at the vertex: <q - p, z - p> <= 0 for simplex z
    q = np.array([2.0, 0.0])
    p = out.values[0]
    for z in [np.array([0.0, 1.0]), np.array([0.5, 0.5]), np.array([1.0, 0.0])]:
        assert (q - p) @ (z - p) <= 1e-12


def test_simplex_projection_interior_point_matches_brute_force():
    out = project(gf(grid1(), [[0.8, 0.6]]), PointwiseSimplex())
    np.testing.assert_allclose(out.values, [[0.6, 0.4]], atol=1e-12)
    thetas = np.arange(0.0, 1.0 + 1e-4, 1e-4)
    cand = np.column_stack([thetas, 1.0 - thetas])
    best = cand[np.argmin(np.sum((cand - [0.8, 0.6]) ** 2, axis=1))]
    assert np.abs(out.values[0] - best).max() <= 1e-4


def test_simplex_rows_sum_exactly_one():
    rng = np.random.default_rng(3)
    g = make_grid(1.0, 10)
    out = project(GridFunction(g, rng.normal(size=(10, 4))), PointwiseSimplex())
    np.testing.assert_allclose(out.values.sum(axis=1), 1.0, atol=1e-15)
    assert out.values.min() >= 0.0


@st.composite
def simplex_inputs(draw):
    """Rows with tied entries, all-equal rows, one good, large negative
    entries and magnitudes from 1e-6 to 1e6."""
    cells = draw(st.integers(1, 4))
    goods = draw(st.integers(1, 6))
    scale = 10.0 ** draw(st.integers(-6, 6))
    # a few shared levels make ties likely; -1e6 times the scale is far below the rest
    entry = st.one_of(st.sampled_from([-1e6, -1.0, 0.0, 0.5, 1.0]), st.floats(-1.0, 1.0))
    v = np.array(draw(st.lists(entry, min_size=cells * goods, max_size=cells * goods)))
    v = scale * v.reshape(cells, goods)
    if draw(st.booleans()):
        v[0] = v[0, 0]
    return v


@settings(max_examples=300, derandomize=True, deadline=None)
@given(simplex_inputs())
@example(np.full((2, 3), 1e6))
@example(np.array([[1e-6, 1e-6, -1e6], [-1e6, -1e6, -1e6]]))
@example(np.array([[-1e12], [1e6]]))
def test_simplex_projection_property(v):
    out = project(GridFunction(make_grid(1.0, len(v)), v), PointwiseSimplex())
    pv = out.values
    assert isinstance(out, PriceCurve)
    assert pv.min() >= 0.0
    np.testing.assert_allclose(pv.sum(axis=1), 1.0, rtol=0.0, atol=1e-15)
    # <v - Pv, y - Pv> is linear in y, so the simplex's vertices are the
    # sampled points at which it is largest
    for row, prow in zip(v, pv):
        slack = (row - prow)[:, None] * (np.eye(row.size) - prow[:, None])
        assert np.max(slack.sum(axis=0)) <= 1e-12 * (1.0 + np.linalg.norm(row))


@st.composite
def rows_and_shifted_rows(draw):
    """(v, w): 30 rows at magnitudes 10^U(0, 20), spread over up to 10 (so
    rows far from 0 tie or nearly tie), and each row moved by a constant.
    Every entry of a row is an integer multiple of one power of two q below
    2^53 q in size, so v and w are exact and w - v is exactly the constant."""
    goods = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cells = 30
    q = 2.0 ** (np.floor(np.log2(10.0 ** rng.uniform(0.0, 20.0, (cells, 1)))) - 50)
    top = rng.integers(2**50, 2**51, (cells, 1))
    spread = np.minimum(10.0 ** rng.uniform(-3.0, 1.0, (cells, 1)), top * q)
    drop = np.floor(spread * rng.random((cells, goods)) / q).astype(np.int64)
    drop[rng.random((cells, goods)) < 0.2] = 0
    n = top - drop
    shift = rng.integers(-(2**52), 2**52, (cells, 1))
    return n * q, (n + shift) * q


@settings(max_examples=100, derandomize=True, deadline=None)
@given(rows_and_shifted_rows())
def test_simplex_projection_ignores_a_constant_added_to_a_row(rows):
    v, w = rows
    g = make_grid(1.0, len(v))
    pv = project(GridFunction(g, v), PointwiseSimplex()).values
    pw = project(GridFunction(g, w), PointwiseSimplex()).values
    np.testing.assert_allclose(pv, pw, rtol=0.0, atol=1e-15)


# --- budget halfspace ---


def test_budget_projection_fixed_points():
    g = grid1()
    p = PriceCurve(g, np.array([[0.5, 0.5]]))
    e = gf(g, [[1.0, 1.0]])
    np.testing.assert_allclose(project(e, BudgetHalfspace(p, e)).values, e.values)
    interior = gf(g, [[0.5, 0.5]])
    np.testing.assert_allclose(project(interior, BudgetHalfspace(p, e)).values, interior.values)


def test_budget_projection_closed_form():
    g = grid1()
    p = PriceCurve(g, np.array([[1.0]]))
    e = gf(g, [[1.0]])
    out = project(gf(g, [[3.0]]), BudgetHalfspace(p, e))
    np.testing.assert_allclose(out.values, [[1.0]], atol=1e-14)
    assert inner_product(p, out - e) <= 1e-12


def test_budget_projection_rejects_zero_price():
    g = grid1()
    zero_p = gf(g, [[0.0]])
    with pytest.raises(DegenerateSet):
        project(gf(g, [[3.0]]), BudgetHalfspace(zero_p, gf(g, [[1.0]])))


# --- cap box ---


def test_cap_box_examples():
    g = grid1()
    np.testing.assert_allclose(project(gf(g, [[0.0]]), CapBox((2.0,))).values, [[0.0]])
    member = gf(g, [[1.5]])
    np.testing.assert_allclose(project(member, CapBox((2.0,))).values, member.values)
    np.testing.assert_allclose(project(gf(g, [[5.0]]), CapBox((2.0,))).values, [[2.0]])
    with pytest.raises(ValueError):
        CapBox((0.0,))


@pytest.mark.parametrize("caps", [(np.nan, 1.0), (1.0, np.nan), (np.nan,)])
def test_cap_box_rejects_nan_caps_by_value(caps):
    with pytest.raises(ValueError, match="nan"):
        CapBox(caps)


def test_cap_box_keeps_infinite_caps_as_uncapped():
    assert CapBox((np.inf, 1.0)).caps == (np.inf, 1.0)


@pytest.mark.parametrize("ratio", [10.0**k for k in range(21)])
def test_projections_stay_feasible_at_extreme_scales(ratio):
    # far above its budget an entry would round onto its own threshold;
    # `_thresholds` shifts each column by its top entry first, so the top
    # entry keeps its mass and ties at the top share it evenly
    x = gf(make_grid(1.0, 2), [[ratio], [0.0]])
    capped = project(x, CapBox((1.0,)))
    assert capped.values.min() >= 0.0
    assert membership_residual(capped, CapBox((1.0,))) <= 1e-12
    for row, point in (([ratio, ratio], [0.5, 0.5]), ([ratio, -ratio], [1.0, 0.0])):
        out = project(gf(grid1(), [row]), PointwiseSimplex())
        np.testing.assert_array_equal(out.values, [point])


def test_cap_projection_stays_feasible_between_the_powers_of_ten():
    # the threshold is taken relative to each column's top entry, so it keeps
    # the cap's precision at any ratio, not only where the entries round evenly
    caps = CapBox((1.0,))
    g = make_grid(1.0, 2)
    infeasible = [
        r for r in np.logspace(0.0, 20.0, 4001)
        if membership_residual(project(gf(g, [[r], [0.0]]), caps), caps) > 1e-12
    ]
    assert infeasible == []
    caps = CapBox((1.0, 1.0))
    rng = np.random.default_rng(0)
    for _ in range(3000):
        cells = int(rng.integers(1, 8))
        x = gf(make_grid(1.0, cells), 10.0 ** rng.uniform(0.0, 20.0) * rng.random((cells, 2)))
        z = project(x, caps)
        assert z.values.min() >= 0.0
        assert membership_residual(z, caps) <= 1e-12


def test_cap_box_water_filling_matches_brute_force():
    g = make_grid(1.0, 2)
    x = gf(g, [[2.0], [0.5]])
    out = project(x, CapBox((1.0,)))

    def feasible(c):
        return (c >= 0).all(axis=1) & (0.5 * c.sum(axis=1) <= 1.0 + 1e-12)

    z = brute_force_project(np.array([2.0, 0.5]), feasible, [0, 0], [3, 3])
    assert np.abs(out.values[:, 0] - z).max() <= 1e-4


def test_cap_box_infinite_caps_is_plain_cone():
    g = make_grid(1.0, 3)
    x = gf(g, [[-1.0, 2.0], [0.5, -0.2], [3.0, 0.0]])
    out = project(x, CapBox((np.inf, np.inf)))
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
        only_half.values, project(x, BudgetHalfspace(p, e)).values, atol=1e-12
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
    p = qvex.project(GridFunction(g, rng.random((5, 2))), PointwiseSimplex())
    e = GridFunction(g, 0.1 + rng.random((5, 2)))
    parts = (BudgetHalfspace(p, e), CapBox((1.4, 1.1)))
    S = Intersection(parts)
    for _ in range(50):
        v = rng.normal(0, 2, size=(5, 2))
        exact = qvex.sets.project_values(v, S, g)
        dyk = dykstra_values(v, parts, g, 1e-12, 200000)
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
    feasible = sample_feasible(Intersection(unit_parts), unit_z, 1.0 + norm(unit_x), rng, 10)
    for y in [unit_z * 0.0, *feasible]:
        assert inner_product(unit_x - unit_z, y - unit_z) <= 1e-9 * (1.0 + norm(unit_x)) ** 2


@st.composite
def budget_caps_root_problems(draw):
    """Budget-and-caps projections whose caps bind or stay slack at the
    budget root with every cap ignored, with zero prices, per-good weights
    and, in some draws, zero wealth."""
    v, p, e, _, scale = draw(budget_caps_problems())
    cells, goods = v.shape
    if draw(st.booleans()):
        e = np.where(p > 0, 0.0, e)
    weights = None
    if draw(st.booleans()):
        weights = np.array(draw(st.lists(st.floats(0.1, 10.0), min_size=goods, max_size=goods)))
    # each good's integral at the root with every cap ignored: a cap below
    # it binds there, one above it binds at most nearer lam = 0
    dt = 1.0 / cells
    uncapped = _project_budget_capbox(v, p, e, (np.inf,) * goods, dt, weights)
    fraction = st.sampled_from([0.3, 0.8, 0.99, 1.2, 3.0, np.inf])
    fracs = draw(st.lists(fraction, min_size=goods, max_size=goods))
    caps = tuple(f * max(dt * uncapped[:, j].sum(), 0.1) for j, f in enumerate(fracs))
    return v, p, e, caps, weights, scale


@settings(max_examples=200, derandomize=True, deadline=None)
@given(budget_caps_root_problems())
def test_budget_capbox_property_from_the_uncapped_root(problem):
    v, p, e, caps, weights, scale = problem
    cells, goods = v.shape
    dt = 1.0 / cells
    scaled_caps = tuple(scale * c for c in caps)
    out = _project_budget_capbox(scale * v, p, scale * e, scaled_caps, dt, weights)
    z = out / scale
    g = make_grid(1.0, cells)
    capbox = CapBox(caps)

    assert z.min() >= 0.0
    assert membership_residual(GridFunction(g, z), capbox) <= 1e-12
    # the search never overspends, measured as the kernel measures it
    assert dt * float(np.vdot(p, out)) <= dt * float(np.vdot(p, scale * e))

    if not np.any(p * e):
        # zero wealth leaves the goods without a price, under their caps
        assert np.all(z[p > 0] == 0.0)
        expected = project(GridFunction(g, np.where(p > 0, 0.0, v)), capbox).values
        np.testing.assert_allclose(z, expected, rtol=1e-12, atol=1e-12)
        return
    # in y = sqrt(w) z the weighted projection is the plain one onto the
    # budget with prices p / sqrt(w) and the caps times sqrt(w)
    root_w = np.ones(goods) if weights is None else np.sqrt(weights)
    parts = (
        BudgetHalfspace(GridFunction(g, p / root_w), GridFunction(g, e * root_w)),
        CapBox(tuple(c * r for c, r in zip(caps, root_w))),
    )
    x = GridFunction(g, v * root_w)
    dyk = GridFunction(g, dykstra_values(x.values, parts, g, 1e-12, 200000))
    y = GridFunction(g, z * root_w)
    assert abs(norm(y - x) - norm(dyk - x)) <= 1e-9 * (1.0 + norm(x))


# --- exact budget-and-caps kernel cut by a ball ---


@pytest.mark.parametrize("caps", [(np.inf,), (1.0,)])
def test_budget_capbox_ball_where_dykstra_ran_out(caps):
    # budget and ball both bind on one good: z <= 0.005 and sqrt(2) z <= 0.0057;
    # Dykstra's alternation between them ran out of sweeps here
    g = make_grid(2.0, 1)
    p = PriceCurve(g, np.array([[1.0]]))
    s = Intersection((BudgetHalfspace(p, gf(g, [[0.005]])), CapBox(caps), Ball(0.0057)))
    z = project(gf(g, [[24.0]]), s)
    assert z.values[0, 0] == pytest.approx(0.0057 / np.sqrt(2.0), rel=1e-14)
    assert membership_residual(z, s) == 0.0


@st.composite
def budget_caps_ball_problems(draw):
    """Budget-and-caps problems, some with zero wealth, cut by a ball
    centered at 0 that binds or stays slack."""
    v, p, e, caps, scale = draw(budget_caps_problems())
    if draw(st.booleans()):
        e = np.where(p > 0, 0.0, e)
    binding = draw(st.booleans())
    frac = draw(st.floats(0.05, 0.95))
    g = make_grid(1.0, v.shape[0])
    size = np.sqrt(g.dt) * np.linalg.norm(_project_budget_capbox(v, p, e, caps, g.dt))
    radius = frac * size if binding and size > 0.0 else (1.0 + frac) * size + frac
    return v, p, e, caps, radius, scale


@settings(max_examples=200, derandomize=True, deadline=None)
@given(budget_caps_ball_problems())
def test_budget_capbox_ball_property_matches_dykstra(problem):
    v, p, e, caps, radius, scale = problem
    x, parts = _budget_caps(scale * v, p, scale * e, tuple(scale * c for c in caps))
    ball = Ball(scale * radius)
    z = project(x, Intersection((*parts, ball)))
    unit_x, unit_parts = _budget_caps(v, p, e, caps)
    unit_parts = (*unit_parts, Ball(radius))
    unit_z = z * (1.0 / scale)
    dt = x.grid.dt

    assert membership_residual(z, ball) == 0.0
    assert z.values.min() >= 0.0
    assert membership_residual(unit_z, unit_parts[1]) <= 1e-12
    assert dt * float(np.vdot(p, z.values)) <= dt * float(np.vdot(p, scale * e))

    try:
        dyk = project_intersection(unit_x, unit_parts, tol=1e-12, max_iter=5000)
    except NonConvergence:
        dyk = None  # the reference crawls where the set is nearly a point
    if dyk is not None:
        assert abs(norm(unit_z - unit_x) - norm(dyk - unit_x)) <= 1e-9 * (1.0 + norm(unit_x))

    rng = np.random.default_rng(0)
    feasible = sample_feasible(Intersection(unit_parts), unit_z, 1.0 + norm(unit_x), rng, 10)
    for y in [unit_z * 0.0, *feasible]:
        assert inner_product(unit_x - unit_z, y - unit_z) <= 1e-9 * (1.0 + norm(unit_x)) ** 2


def test_project_takes_only_the_intersections_it_solves_exactly():
    g = grid1()
    p = PriceCurve(g, np.array([[1.0]]))
    budget = BudgetHalfspace(p, gf(g, [[0.5]]))
    x = gf(g, [[3.0]])
    no_budget = (Ball(1.0), CapBox((2.0,)))
    centered = (budget, CapBox((2.0,)), Ball(1.0, center=(0.2,)))
    for parts in (no_budget, centered):
        with pytest.raises(TypeError, match="one budget set, one capped cone"):
            project(x, Intersection(parts))
        out = project_intersection(x, parts, tol=1e-12)
        assert membership_residual(out, Intersection(parts)) <= 1e-12
    np.testing.assert_allclose(project_intersection(x, no_budget).values, [[1.0]], atol=1e-9)
    np.testing.assert_allclose(project_intersection(x, centered).values, [[0.5]], atol=1e-9)


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


def _counting_water_fills(monkeypatch):
    """Count the capped-cone evaluations (`_water_fill` calls) from here on;
    the count is the list's one entry."""
    calls = [0]
    water_fill = qvex.sets._water_fill

    def counting(v, budgets):
        calls[0] += 1
        return water_fill(v, budgets)

    monkeypatch.setattr(qvex.sets, "_water_fill", counting)
    return calls


@pytest.mark.parametrize("cells, goods, capped", [(16, 2, True), (1024, 3, False)])
def test_budget_capbox_search_evaluations_per_projection(monkeypatch, cells, goods, capped):
    calls = _counting_water_fills(monkeypatch)
    rng = np.random.default_rng(0)
    count = 300
    for _ in range(count):
        _project_budget_capbox(*_search_input(rng, cells, goods, capped))
    assert calls[0] / count <= 1.5


def test_budget_capbox_takes_one_evaluation_where_a_cap_binds_only_at_zero(monkeypatch):
    # the truncated solve's shape: the cap binds on the unpriced point, but
    # the budget alone cuts spending below it, so the root with the caps
    # ignored is the projection
    calls = _counting_water_fills(monkeypatch)
    v, p, e = np.full((2, 1), 3.0), np.ones((2, 1)), np.ones((2, 1))
    z = _project_budget_capbox(v, p, e, (2.0,), 0.5)
    assert calls[0] == 1
    np.testing.assert_allclose(z, np.ones((2, 1)), rtol=1e-14)
    assert 0.5 * z.sum() <= 1.0


@st.composite
def multiplier_kernel_problems(draw):
    """One call of a multiplier kernel, with magnitudes from 1e-6 to 1e6:
    (name, [(bound, measure, terms, binds)]) from `_multiplier_kernel_case`."""
    kernel = draw(st.sampled_from(["budget-caps", "ball", "logshift", "logshift caps", "cone"]))
    cells = draw(st.sampled_from([1, 16, 256]))
    goods = draw(st.integers(1, 3))
    scale = 10.0 ** draw(st.integers(-6, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return kernel, _multiplier_kernel_case(kernel, cells, goods, scale, rng)


def _multiplier_kernel_case(kernel, cells, goods, scale, rng):
    """[(bound, measure, terms, binds)] of one call of `kernel` on inputs
    drawn from `rng`.  `measure` is taken as the kernel takes it; `terms`
    bounds the magnitude of the terms it sums and of the move one ulp of
    the multiplier makes in it; `binds` says whether the bound is active,
    so that the kernel must land in its window."""
    dt = 1.0 / cells
    p = 0.05 + rng.random((cells, goods))
    p /= p.sum(axis=1, keepdims=True)
    e = scale * (0.1 + rng.random((cells, goods)))
    v = e * rng.uniform(0.5, 3.0, e.shape) + scale * rng.normal(0.0, 1.0, e.shape)
    caps = tuple(scale * rng.uniform(0.1, 2.0) if c else np.inf for c in rng.random(goods) < 0.6)
    budgets = _cap_budgets(caps, dt)
    wealth = dt * float(np.vdot(p, e))
    positive_spend = dt * float(np.vdot(p, np.maximum(v, 0.0)))
    if kernel == "budget-caps":
        z = _project_budget_capbox(v, p, e, caps, dt)
        binds = dt * float(np.vdot(p, _water_fill(v, budgets))) > wealth
        return [(wealth, dt * float(np.vdot(p, z)), positive_spend, binds)]
    if kernel == "ball":
        # P_C is nonexpansive and fixes 0, so no point measures more than v
        size = np.sqrt(dt) * np.linalg.norm(_project_budget_capbox(v, p, e, caps, dt))
        radius = rng.uniform(0.05, 0.95) * size
        z = _project_budget_capbox_ball(v, p, e, caps, radius, dt)
        norm_z = float(np.sqrt(dt) * np.linalg.norm(z))
        return [(radius, norm_z, np.sqrt(dt) * np.linalg.norm(v), True)]
    a = scale * (0.5 + 1.5 * rng.random(goods))
    shift = scale * 10.0 ** rng.uniform(-1.0, 1.0)
    if kernel == "logshift":
        x = LogShift(tuple(a), shift, cells).demand(p, e, caps, dt)
        # an uncapped good's demand is unbounded at lam = 0
        binds = dt * float(np.vdot(p, _logshift_plan(0.0 * p, a, shift, budgets))) > wealth
        # each active term p x is a / (lam + mu / p) - shift p
        terms = dt * float(np.sum(np.where(x > 0, p * (x + shift), 0.0)))
        return [(wealth, dt * float(np.vdot(p, x)), terms, binds)]
    if kernel == "logshift caps":
        c = rng.random((cells, goods)) * rng.uniform(0.01, 1.0) / scale
        budgets = np.full(goods, np.inf) if budgets is None else budgets
        budgets[0] = caps[0] / dt if np.isfinite(caps[0]) else scale * rng.uniform(0.1, 2.0) / dt
        x = _logshift_plan(c, a, shift, budgets)
        # each column summed on its own, as `membership_residual` sums it
        free = [column.sum() for column in _logshift_plan(c, a, shift, None).T]
        # each active term x is a / (c + mu) - shift
        terms = np.sum(np.where(x > 0, x + shift, 0.0), axis=0)
        return list(zip(budgets, [column.sum() for column in x.T], terms, free > budgets))
    V = v + scale * rng.normal(0.0, 1.0, (8, cells, goods))
    Z = _project_budget_cone(V, p, e, dt)
    start = _spend(np.maximum(V, 0.0), p, dt)
    return list(zip([wealth] * len(V), _spend(Z, p, dt), start, start > wealth))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(multiplier_kernel_problems())
def test_every_multiplier_kernel_lands_in_the_window(problem):
    # the window is relative to the bound; a point may miss its lower edge
    # only by the rounding of the terms its measure sums, or by the move one
    # ulp of the multiplier makes where the measure is that steep
    kernel, cases = problem
    slack = 8.0 * np.finfo(float).eps
    for bound, measure, terms, binds in cases:
        assert measure <= bound, kernel
        if binds:
            assert measure >= bound * (1.0 - _SEARCH_WINDOW) - slack * terms, kernel


def test_logshift_cap_columns_land_below_the_window_only_by_rare_rounding():
    # the cap search aims at the window's middle; aimed at its lower edge,
    # 28 % of binding columns landed below it
    rng = np.random.default_rng(0)
    binding = below = 0
    for _ in range(2000):
        cells = int(rng.choice([1, 16, 256]))
        scale = 10.0 ** int(rng.integers(-6, 7))
        case = _multiplier_kernel_case("logshift caps", cells, int(rng.integers(1, 4)), scale, rng)
        for bound, measure, _, binds in case:
            assert measure <= bound
            binding += binds
            below += binds and measure < bound * (1.0 - _SEARCH_WINDOW)
    assert binding >= 1000
    assert below <= 0.01 * binding


def test_budget_capbox_search_exhaustion_raises(monkeypatch):
    monkeypatch.setattr(qvex.sets, "_MAX_SEARCH", 1)
    x, parts = _budget_caps(*STALLED_SEARCH_CASES["1x3-partly-capped"])
    with pytest.raises(NonConvergence) as err:
        project(x, Intersection(parts))
    assert err.value.last_iterate is not None
    assert err.value.residuals


def test_logshift_cap_search_exhaustion_names_the_good(monkeypatch):
    # one evaluation: the first trial, one Newton step from the lower end,
    # misses the window on these costs, and the search has none left
    monkeypatch.setattr(qvex.sets, "_MAX_SEARCH", 1)
    c = np.random.default_rng(0).random((16, 2))
    budgets = np.array([np.inf, 2.0])
    with pytest.raises(NonConvergence, match="cap multiplier search for good 1") as err:
        _logshift_plan(c, np.ones(2), 0.01, budgets)
    assert err.value.residuals["gap"] > 0.0
    assert err.value.residuals["bracket_width"] == np.inf
    plan = err.value.last_iterate
    assert plan.shape == (16, 2)
    # the slack column is already final, the binding one holds the last trial
    np.testing.assert_array_equal(plan[:, 0], _logshift_plan(c, np.ones(2), 0.01, None)[:, 0])
    assert plan[:, 1].sum() - budgets[1] == err.value.residuals["gap"]


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
    capped = project(x, CapBox(caps))
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
    p = qvex.project(GridFunction(g, rng.random((4, 2))), PointwiseSimplex())
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
        for z in sample_feasible(s, px, 1.0, rng, 5):
            assert inner_product(x - px, z - px) <= 1e-10 * scale


def test_sample_feasible_returns_members():
    rng, g, sets = _random_cases(24)
    for s in sets:
        center = project(GridFunction(g, rng.normal(size=(4, 2))), s)
        for y in sample_feasible(s, center, 2.0, rng, 20):
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
            batched = sample_feasible(s, center, 2.0, batched_rng, 30)
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
def budget_cone_blocks(draw, cells=None, goods=None, count=5):
    """Blocks of points to project onto one uncapped budget set, with zero
    prices, zero-wealth endowments and magnitudes from 1e-6 to 1e6."""
    cells = cells or draw(st.sampled_from([1, 2, 16, 1024]))
    goods = goods or draw(st.integers(1, 3))
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
    V = e + rng.normal(0.0, 2.0, size=(count, cells, goods)) + rng.uniform(0.0, 2.0)
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
        for y in [zf * 0.0, *sample_feasible(s, zf, scale, rng, 5)]:
            assert inner_product(GridFunction(g, v) - zf, y - zf) <= 1e-9 * scale**2


@st.composite
def mixed_budget_cone_blocks(draw):
    """Blocks of 1 to 64 slices on 1, 16 or 1024 cells that mix slices
    inside the budget with overspending ones, with zero prices, zero-wealth
    endowments and magnitudes from 1e-6 to 1e6."""
    cells = draw(st.sampled_from([1, 16, 1024]))
    goods = draw(st.integers(1, 3))
    k = draw(st.integers(1, 64))
    V, p, e = draw(budget_cone_blocks(cells=cells, goods=goods, count=k))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    inside = rng.random(k) < draw(st.sampled_from([0.0, 0.5, 1.0]))
    # a slice between 0 and the endowment spends at most the wealth
    V[inside] = rng.random((int(inside.sum()), cells, goods)) * e
    return V, p, e, 1.0 / cells


# a slice that spends the wealth exactly is settled from the start, while
# one Newton step would still move it: it aims below the wealth
_EXACT_SPEND = np.stack([np.full((16, 2), 1.0), np.full((16, 2), 3.0)])


@settings(max_examples=200, derandomize=True, deadline=None)
@given(mixed_budget_cone_blocks())
@example((_EXACT_SPEND, np.full((16, 2), 0.5), np.full((16, 2), 1.0), 1.0 / 16))
def test_budget_cone_matches_the_compacting_loop_and_single_slices_bit_for_bit(problem):
    V, p, e, dt = problem
    before = V.copy()
    Z = _project_budget_cone(V, p, e, dt)
    assert V.tobytes() == before.tobytes()
    assert Z.tobytes() == compacting_budget_cone(V, p, e, dt).tobytes()
    for v, z in zip(V, Z):
        assert _project_budget_cone(v[None], p, e, dt).tobytes() == z.tobytes()


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


def test_budget_cone_exhaustion_reports_only_the_unsettled_slices(monkeypatch):
    monkeypatch.setattr(qvex.sets, "_MAX_NEWTON", 1)
    rng = np.random.default_rng(3)
    p = rng.random((1024, 3))
    p /= p.sum(axis=1, keepdims=True)
    e = 0.2 + rng.random((1024, 3))
    V = e + rng.normal(0.0, 3.0, size=(6, 1024, 3))
    # two slices inside the budget, which settle before the first step
    V[[1, 4]] = 0.5 * e
    with pytest.raises(NonConvergence) as err:
        _project_budget_cone(V, p, e, 1.0 / 1024)
    with pytest.raises(NonConvergence) as ref:
        compacting_budget_cone(V, p, e, 1.0 / 1024, max_newton=1)
    assert err.value.last_iterate.tobytes() == ref.value.last_iterate.tobytes()
    assert err.value.residuals == ref.value.residuals
    assert 1 <= err.value.residuals["unsettled"] == len(err.value.last_iterate) <= 4
