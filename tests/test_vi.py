import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import minty_certificate, projected_gradient_vi, sample_feasible
from qvex import (
    Ball,
    BudgetHalfspace,
    CapBox,
    GridFunction,
    Intersection,
    OperatorHandle,
    estimate_lipschitz,
    make_grid,
    membership_residual,
    norm,
    solve_vi_extragradient,
    vi_residual,
)
from qvex.errors import NumericFailure
from qvex.sets import project_values

G1 = make_grid(1.0, 1)


def interval(lo, hi):
    """1-d interval [lo, hi] as a ball with the midpoint as center."""
    return Ball(0.5 * (hi - lo), center=(0.5 * (lo + hi),))


def scalar(x):
    return GridFunction(G1, np.array([[float(x)]]))


def affine_instance(seed=42, dim=10):
    """Fixed-seed strongly monotone affine operator on the unit ball."""
    rng = np.random.default_rng(seed)
    M = rng.normal(size=(dim, dim)) / np.sqrt(dim)
    A = M.T @ M + np.eye(dim)
    b = rng.normal(size=dim)
    g = make_grid(1.0, 1)

    def fn(x):
        return (A @ x[0] + b)[None, :]

    return OperatorHandle(fn), Ball(1.0), g, A, b


# --- vi_residual ---


def test_residual_zero_at_interior_zero_of_operator():
    op = OperatorHandle(lambda x: x)
    zero = GridFunction(G1, np.zeros((1, 2)))
    assert vi_residual(zero, op, Ball(1.0), 0.7) == 0.0


def test_residual_zero_at_boundary_solution():
    op = OperatorHandle(lambda x: x)
    C = interval(1.0, 2.0)
    assert vi_residual(scalar(1.0), op, C, 1.0) == pytest.approx(0.0, abs=1e-15)


def test_residual_hand_value():
    op = OperatorHandle(lambda x: x - 2.0)
    C = interval(0.0, 1.0)
    assert vi_residual(scalar(0.0), op, C, 1.0) == pytest.approx(1.0, abs=1e-15)


def test_residual_rejects_nonpositive_gamma():
    op = OperatorHandle(lambda x: x)
    with pytest.raises(ValueError):
        vi_residual(scalar(0.0), op, Ball(1.0), 0.0)


# --- forward-reflected-backward solver (solve_vi_extragradient) ---


def test_solver_finds_interior_zero():
    op = OperatorHandle(lambda x: x)
    g = make_grid(1.0, 2)
    x0 = GridFunction(g, np.array([[0.7, -0.3], [0.1, 0.9]]))
    rep = solve_vi_extragradient(op, Ball(1.0), x0, tol=1e-10)
    assert rep.converged
    assert norm(rep.solution) <= 1e-9


def test_solver_boundary_solution_1d():
    op = OperatorHandle(lambda x: x - 3.0)
    C = interval(0.0, 1.0)
    rep = solve_vi_extragradient(op, C, scalar(0.2), tol=1e-10)
    assert rep.converged
    assert rep.solution.values[0, 0] == pytest.approx(1.0, abs=1e-9)
    # VI inequality at the solution: F(1)(z - 1) = -2 (z - 1) >= 0 on [0, 1]
    for z in np.linspace(0, 1, 11):
        assert (1.0 - 3.0) * (z - 1.0) >= -1e-9


def test_solver_matches_projected_gradient_oracle():
    op, C, g, A, b = affine_instance()
    x0 = GridFunction(g, np.zeros((1, 10)))
    rep = solve_vi_extragradient(op, C, x0, tol=1e-8, max_iter=10000)
    assert rep.converged

    def proj(v):
        return project_values(v[None, :], C, g)[0]

    star = projected_gradient_vi(lambda v: A @ v + b, proj, np.zeros(10), step=1e-3)
    assert np.linalg.norm(rep.solution.values[0] - star) <= 1e-6


def test_solver_report_consistency_and_history():
    op, C, g, A, b = affine_instance()
    x0 = GridFunction(g, np.zeros((1, 10)))
    rep = solve_vi_extragradient(op, C, x0, tol=1e-8)
    assert rep.converged
    assert rep.final_residual <= 1e-8
    # independent re-evaluation at the report's own step
    assert vi_residual(rep.solution, op, C, rep.step_used) <= 1e-8
    # monotone Lipschitz operator with step < 1/L: residuals decay after burn-in
    hist = rep.residual_history
    burn = 10
    assert np.all(np.diff(hist[burn:]) <= 1e-12)


def test_solver_nonconvergence_reports_best_iterate():
    op, C, g, A, b = affine_instance()
    x0 = GridFunction(g, np.zeros((1, 10)))
    rep = solve_vi_extragradient(op, C, x0, tol=1e-12, max_iter=3)
    assert not rep.converged
    assert rep.final_residual == min(rep.residual_history)
    assert vi_residual(rep.solution, op, C, rep.step_used) == pytest.approx(
        rep.final_residual, abs=1e-14
    )


@st.composite
def monotone_affine_vis(draw):
    """(op, C, x0): F(v) = A v + b with A a PSD part plus a skew part, on an
    interval, a ball, or a budget set cut by integral caps (and a ball);
    the start need not lie in C."""
    kind = draw(st.sampled_from(["interval", "ball", "budget-caps", "budget-caps-ball"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grid = G1 if kind == "interval" else make_grid(1.0, draw(st.integers(1, 4)))
    shape = (grid.cells, 1 if kind == "interval" else draw(st.integers(1, 3)))
    n = shape[0] * shape[1]
    M, S = rng.normal(size=(2, n, n)) / np.sqrt(n)
    A = draw(st.sampled_from([0.0, 0.01, 1.0])) * M.T @ M
    A = A + draw(st.sampled_from([0.0, 1.0, 10.0])) * (S - S.T)
    b = rng.normal(size=n)
    op = OperatorHandle(lambda v: (A @ v.ravel() + b).reshape(v.shape))
    if kind == "interval":
        lo = rng.uniform(-1.0, 1.0)
        C = interval(lo, lo + rng.uniform(0.1, 2.0))
    elif kind == "ball":
        C = Ball(rng.uniform(0.1, 2.0))
    else:
        p = GridFunction(grid, rng.uniform(0.0, 1.0, shape))
        e = GridFunction(grid, rng.uniform(0.0, 1.0, shape))
        parts = (BudgetHalfspace(p, e), CapBox(tuple(rng.uniform(0.2, 2.0, shape[1]))))
        C = Intersection(parts + ((Ball(rng.uniform(0.1, 2.0)),) if kind.endswith("ball") else ()))
    return op, C, GridFunction(grid, 2.0 * rng.normal(size=shape))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    monotone_affine_vis(),
    st.sampled_from([1e-4, 1e-6, 1e-8]),
    st.integers(1, 300),
    st.sampled_from([None, 0.05, 10.0]),
)
def test_solver_stop_certifies_the_returned_point(vi, tol, max_iter, step):
    op, C, x0 = vi
    rep = solve_vi_extragradient(op, C, x0, step=step, tol=tol, max_iter=max_iter)
    assert membership_residual(rep.solution, C) <= 1e-12
    if rep.converged:
        assert vi_residual(rep.solution, op, C, 1.0) <= tol
    else:
        # the bound is a triangle inequality, tight in one dimension, so
        # the two sides may differ by rounding
        rounding = 1e-13 * (1.0 + norm(rep.solution))
        assert vi_residual(rep.solution, op, C, rep.step_used) <= rep.final_residual + rounding


def test_lipschitz_estimate_is_the_two_point_ratio_at_the_start():
    # F(x) = 3x - 1 on [0, 1] from 0.2: y = P(0.2 + 0.4) = 0.6, and the
    # ratio of an affine map is its slope
    op = OperatorHandle(lambda v: 3.0 * v - 1.0)
    assert estimate_lipschitz(op, interval(0.0, 1.0), scalar(0.2)) == pytest.approx(3.0)
    assert estimate_lipschitz(op, interval(0.0, 1.0), scalar(-5.0)) == pytest.approx(3.0)
    # nothing measured: F equal at x and y, or x = y (0 solves F(x) = x + 1)
    flat = OperatorHandle(lambda v: np.full_like(v, -0.7))
    shifted = OperatorHandle(lambda v: v + 1.0)
    assert estimate_lipschitz(flat, interval(0.0, 1.0), scalar(0.2)) == 1.0
    assert estimate_lipschitz(shifted, interval(0.0, 1.0), scalar(0.0)) == 1.0
    # a positive ratio is floored, not replaced
    tiny = OperatorHandle(lambda v: 1e-12 * v - 1.0)
    assert estimate_lipschitz(tiny, Ball(1e3), scalar(0.0)) == 1e-8


def test_a_constant_operator_solve_certifies_at_the_unit_step():
    # a constant F measures no Lipschitz ratio; a first step as long as
    # 0.9 / 1e-8 throws the start 6.5e7 past the budget line, and rounding
    # lands its projection back 2e-8 inside it, which the solver's bound at
    # that step cannot see
    p, e = GridFunction(G1, np.array([[0.74478467]])), GridFunction(G1, np.array([[0.52634508]]))
    C = Intersection((BudgetHalfspace(p, e), CapBox((1.6249619667438888,))))
    op = OperatorHandle(lambda v: np.full_like(v, -0.72144189))
    rep = solve_vi_extragradient(op, C, scalar(2.08961765), tol=1e-8, max_iter=2)
    assert rep.converged
    assert vi_residual(rep.solution, op, C, 1.0) <= 1e-8


@pytest.mark.parametrize("scale", [1.0, 1e3, 1e6])
def test_solver_adaptive_step_recovers_from_bad_step(scale):
    # step far above 1/L = 1/(4 scale) oscillates; the adaptive rule must bring it home
    op = OperatorHandle(lambda x: scale * (4.0 * x - 2.0))
    rep = solve_vi_extragradient(op, interval(0.0, 2.0), scalar(2.0), step=0.6, tol=1e-9, max_iter=5000)
    assert rep.converged
    assert rep.solution.values[0, 0] == pytest.approx(0.5, abs=1e-8)
    assert rep.step_used < 0.6


def test_solver_raises_on_nan_operator():
    def bad(x):
        return np.where(x > 0.5, np.nan, x)

    # the operator entry point refuses NaN, so the failure surfaces as a numeric error
    with pytest.raises((NumericFailure, ValueError)):
        solve_vi_extragradient(OperatorHandle(bad), interval(0.0, 1.0), scalar(0.9), tol=1e-9)


def shifted_identity():
    """F(x) = x - 0.3, whose VI on the unit ball is solved by x = 0.3 alone."""
    return OperatorHandle(lambda x: x - 0.3)


@pytest.mark.parametrize("step", [0.0, -0.5, np.nan, np.inf, True])
def test_solver_rejects_a_step_that_is_not_finite_and_positive(step):
    # at step 0 every point has residual 0, so x0 = 0.9 came back converged
    op = shifted_identity()
    assert vi_residual(scalar(0.9), op, Ball(1.0), 1.0) == pytest.approx(0.6)
    with pytest.raises(ValueError, match="^step: "):
        solve_vi_extragradient(op, Ball(1.0), scalar(0.9), step=step)


@pytest.mark.parametrize("slack", [np.inf, np.nan, -1e-9, True])
def test_minty_rejects_a_slack_that_is_not_finite_and_nonnegative(slack):
    # an infinite slack passed x = 0.9, which fails at the default slack
    op = shifted_identity()
    assert not minty_certificate(scalar(0.9), op, Ball(1.0), seed=0).verdict
    with pytest.raises(ValueError, match="^slack: "):
        minty_certificate(scalar(0.9), op, Ball(1.0), seed=0, slack=slack)
    assert minty_certificate(scalar(0.3), op, Ball(1.0), seed=0, slack=0.0).verdict


def test_solution_insensitive_to_step_halving():
    op, C, g, A, b = affine_instance()
    x0 = GridFunction(g, np.zeros((1, 10)))
    rep1 = solve_vi_extragradient(op, C, x0, step=0.4, tol=1e-10)
    rep2 = solve_vi_extragradient(op, C, x0, step=0.2, tol=1e-10)
    assert rep1.converged and rep2.converged
    assert norm(rep1.solution - rep2.solution) <= 1e-6


# --- Minty certificate ---


def test_minty_passes_at_solution():
    op = OperatorHandle(lambda x: x)
    zero = GridFunction(G1, np.zeros((1, 2)))
    cert = minty_certificate(zero, op, Ball(1.0), samples=128, seed=0)
    assert cert.verdict


def test_minty_passes_at_boundary_solution():
    op = OperatorHandle(lambda x: x - 3.0)
    cert = minty_certificate(scalar(1.0), op, interval(0.0, 1.0), samples=128, seed=0)
    assert cert.verdict


def test_minty_fails_with_witness_off_solution():
    op = OperatorHandle(lambda x: x - 3.0)
    cert = minty_certificate(scalar(0.0), op, interval(0.0, 1.0), samples=256, seed=0)
    assert not cert.verdict
    assert cert.witness is not None
    y = cert.witness.values[0, 0]
    assert y >= 0.5  # the violation is strongest near y = 1
    assert cert.residuals["min_inner_product"] < -1e-9


def test_minty_certified_points_have_small_stampacchia_residual():
    # sampled Minty passes imply a small natural-map residual (the two
    # solution sets coincide for continuous monotone operators); checked on
    # low-dimensional instances where the Gaussian cloud covers the set
    cases = [
        (OperatorHandle(lambda x: x - 3.0), interval(0.0, 1.0), 1),
        (OperatorHandle(lambda x: 2.0 * x + 0.3), Ball(1.0), 2),
        (OperatorHandle(lambda x: x), Ball(2.0), 2),
    ]
    rng = np.random.default_rng(0)
    for op, C, m in cases:
        star = solve_vi_extragradient(
            op, C, GridFunction(G1, np.zeros((1, m))), tol=1e-10
        ).solution
        checked = 0
        for probe in [star] + sample_feasible(C, star, 1.0, rng, 40):
            cert = minty_certificate(probe, op, C, samples=256, seed=3)
            if cert.verdict:
                checked += 1
                assert vi_residual(probe, op, C, 1.0) <= 1e-6
        assert checked >= 1  # at least the solution itself certifies


# --- the array contract of operators ---


@pytest.mark.parametrize("row", [[np.nan, 0.0], [np.inf, -np.inf], [np.inf, 1.0]])
def test_operator_entry_points_refuse_values_that_are_not_finite(row):
    op = OperatorHandle(lambda x: np.array([row]))
    x = GridFunction(G1, np.zeros((1, 2)))
    with pytest.raises(ValueError, match="^operator values must be finite$"):
        op.values(x.values)
    with pytest.raises(ValueError, match="^operator values must be finite$"):
        op(x)


def test_operator_values_whose_sum_overflows_pass():
    op = OperatorHandle(lambda x: np.full_like(x, 1e308))
    x = GridFunction(G1, np.zeros((1, 2)))
    assert op.values(x.values).tolist() == op(x).values.tolist() == [[1e308, 1e308]]


def test_operator_entry_points_refuse_a_change_of_shape():
    op = OperatorHandle(lambda x: x[:, :1])
    x = GridFunction(G1, np.zeros((1, 2)))
    with pytest.raises(NumericFailure, match=r"changed shape: \(1, 2\) -> \(1, 1\)"):
        op.values(x.values)
    with pytest.raises(NumericFailure, match=r"changed shape: \(1, 2\) -> \(1, 1\)"):
        op(x)


def test_extragradient_builds_no_grid_function_per_iteration(monkeypatch):
    built = []
    post_init = GridFunction.__post_init__

    def counting(self):
        built.append(type(self))
        post_init(self)

    monkeypatch.setattr(GridFunction, "__post_init__", counting)
    op, C, g, _, _ = affine_instance()
    x0 = GridFunction(g, np.zeros((1, 10)))
    counts = {}
    for max_iter in (50, 10000):
        built.clear()
        # no step given, so the two-point Lipschitz ratio runs as well
        rep = solve_vi_extragradient(op, C, x0, tol=1e-12, max_iter=max_iter)
        counts[rep.iterations] = len(built)
    # 50 iterations cut short and a longer run to convergence each wrap
    # only the report's solution
    assert len(counts) == 2 and min(counts) == 50
    assert set(counts.values()) == {1}
