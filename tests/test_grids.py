import numpy as np
import pytest

from oracles import integrate_component
from qvex import (
    GridFunction,
    PriceCurve,
    inner_product,
    make_grid,
    norm,
    split_components,
    stack_components,
)
from qvex.errors import ShapeMismatch
from qvex.grids import _l2


def test_make_grid_dt():
    assert make_grid(1.0, 1).dt == 1.0
    assert make_grid(1.0, 16).dt == 0.0625
    assert make_grid(2.0, 8).dt == 0.25


def test_make_grid_rejects_bad_arguments():
    with pytest.raises(ValueError):
        make_grid(0.0, 4)
    with pytest.raises(ValueError):
        make_grid(-1.0, 4)
    with pytest.raises(ValueError):
        make_grid(1.0, 0)


def test_dt_times_cells_recovers_horizon():
    g = make_grid(7.3, 13)
    assert g.dt * g.cells == pytest.approx(7.3, abs=1e-15)


def test_inner_product_unit_constant():
    g = make_grid(1.0, 4)
    one = GridFunction.constant(g, [1.0])
    assert inner_product(one, one) == pytest.approx(1.0, abs=1e-15)


def test_inner_product_orthogonal_components():
    g = make_grid(1.0, 3)
    h = GridFunction.constant(g, [1.0, 0.0])
    k = GridFunction.constant(g, [0.0, 1.0])
    assert inner_product(h, k) == 0.0


def test_inner_product_hand_integral():
    # integral of 2*3 over [0, 2]
    g = make_grid(2.0, 5)
    h = GridFunction.constant(g, [2.0])
    k = GridFunction.constant(g, [3.0])
    assert inner_product(h, k) == pytest.approx(12.0, abs=1e-12)


def test_inner_product_shape_mismatch():
    g = make_grid(1.0, 2)
    h = GridFunction.constant(g, [1.0])
    k = GridFunction.constant(make_grid(1.0, 4), [1.0])
    with pytest.raises(ShapeMismatch):
        inner_product(h, k)
    with pytest.raises(ShapeMismatch):
        inner_product(h, GridFunction.constant(g, [1.0, 2.0]))


def test_norm_examples():
    g = make_grid(1.0, 4)
    assert norm(GridFunction.zeros(g, 2)) == 0.0
    assert norm(GridFunction.constant(g, [1.0])) == pytest.approx(1.0, abs=1e-15)
    assert norm(GridFunction.constant(g, [3.0, 4.0])) == pytest.approx(5.0, abs=1e-12)


def test_integrate_component():
    g = make_grid(1.0, 2)
    assert integrate_component(GridFunction.constant(g, [1.0]), 0) == pytest.approx(1.0)
    assert integrate_component(GridFunction.zeros(g, 1), 0) == 0.0
    two_half_cells = GridFunction(g, np.array([[1.0], [3.0]]))
    assert integrate_component(two_half_cells, 0) == pytest.approx(2.0, abs=1e-15)
    with pytest.raises(ValueError):
        integrate_component(two_half_cells, 1)


def test_values_are_locked_and_copied():
    g = make_grid(1.0, 2)
    src = np.ones((2, 1))
    h = GridFunction(g, src)
    src[0, 0] = 99.0
    assert h.values[0, 0] == 1.0
    with pytest.raises(ValueError):
        h.values[0, 0] = 5.0


NONFINITE_ROWS = ([np.nan], [np.nan, 0.0], [np.inf, -np.inf], [np.inf, 1.0])


@pytest.mark.parametrize("kind", [GridFunction, PriceCurve])
@pytest.mark.parametrize("row", NONFINITE_ROWS)
def test_rejects_nonfinite_values(kind, row):
    g = make_grid(1.0, 1)
    with pytest.raises(ValueError, match="grid function values must be finite"):
        kind(g, np.array([row]))


def test_finite_values_whose_sum_overflows_are_accepted():
    # the finiteness check sums first; only a sum that is not finite is
    # tested entry by entry, so finite entries that overflow it still pass
    g = make_grid(1.0, 1)
    h = GridFunction(g, np.array([[1e308, 1e308]]))
    assert h.values.tolist() == [[1e308, 1e308]]
    with pytest.raises(ValueError, match="unit simplex"):
        PriceCurve(g, np.array([[1e308, -1e308]]))


def test_bilinearity_on_random_functions():
    rng = np.random.default_rng(7)
    g = make_grid(1.5, 8)
    for _ in range(50):
        h1 = GridFunction(g, rng.normal(size=(8, 3)))
        h2 = GridFunction(g, rng.normal(size=(8, 3)))
        k = GridFunction(g, rng.normal(size=(8, 3)))
        a = float(rng.normal())
        lhs = inner_product(a * h1 + h2, k)
        rhs = a * inner_product(h1, k) + inner_product(h2, k)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_cauchy_schwarz_on_random_functions():
    rng = np.random.default_rng(8)
    g = make_grid(2.0, 6)
    for _ in range(100):
        h = GridFunction(g, rng.normal(size=(6, 2)))
        k = GridFunction(g, rng.normal(size=(6, 2)))
        assert abs(inner_product(h, k)) <= norm(h) * norm(k) + 1e-12


def test_refinement_preserves_inner_products():
    rng = np.random.default_rng(9)
    g = make_grid(1.0, 5)
    h = GridFunction(g, rng.normal(size=(5, 2)))
    k = GridFunction(g, rng.normal(size=(5, 2)))
    assert inner_product(h.refine(2), k.refine(2)) == pytest.approx(
        inner_product(h, k), abs=1e-12
    )
    assert inner_product(h.refine(4), k.refine(4)) == pytest.approx(
        inner_product(h, k), abs=1e-12
    )


@pytest.mark.parametrize("factor", [2.5, 0, True])
def test_refinement_needs_an_integer_factor(factor):
    # refine(2.5) used to refine by 2
    h = GridFunction.constant(make_grid(1.0, 2), [1.0])
    with pytest.raises(ValueError, match="^factor: "):
        h.refine(factor)


def test_stack_split_roundtrip():
    rng = np.random.default_rng(10)
    g = make_grid(1.0, 3)
    blocks = [GridFunction(g, rng.normal(size=(3, 2))) for _ in range(4)]
    stacked = stack_components(blocks)
    assert stacked.components == 8
    back = split_components(stacked, 4)
    for b, o in zip(back, blocks):
        np.testing.assert_array_equal(b.values, o.values)


def test_price_curve_validates_simplex():
    g = make_grid(1.0, 2)
    PriceCurve(g, np.full((2, 2), 0.5))
    with pytest.raises(ValueError):
        PriceCurve(g, np.full((2, 2), 0.7))
    with pytest.raises(ValueError):
        PriceCurve(g, np.array([[1.4, -0.4], [0.5, 0.5]]))


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
def test_l2_has_the_bits_of_numpy_norm(scale):
    # the shapes the kernels measure: one agent's (cells, m) plan, a stacked
    # (cells, n m) allocation, a (k, cells, m) block, and views of them
    rng = np.random.default_rng(0)
    for shape in [(1, 1), (16, 2), (1024, 3), (64, 24), (8, 16, 3)]:
        for _ in range(20):
            a = scale * rng.normal(size=shape)
            for v in (a, a[..., :1], a[..., 1:], a[::2], a.T):
                assert _l2(v) == np.linalg.norm(v), (shape, v.strides)
