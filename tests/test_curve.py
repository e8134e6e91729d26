import numpy as np
import pytest

from conftest import folded_rhombus_curve, regular_polygon_curve
from rhombidome.curve import (
    IntegralCurve,
    InvalidCurveError,
    NonIntegerEdgeError,
    farthest_vertex_pair,
    from_integer_curve,
    is_packing,
    is_planar,
    random_integral_curve,
)


def test_from_integer_curve_unit_triangle_unchanged(unit_triangle):
    out = from_integer_curve([unit_triangle.components[0]])
    assert out.edge_count == 3
    assert np.array_equal(out.components[0], unit_triangle.components[0])


def test_from_integer_curve_subdivides_long_edges():
    side2 = np.array([[0, 0, 0], [2, 0, 0], [1, np.sqrt(3), 0]], dtype=float)
    out = from_integer_curve([side2])
    assert out.edge_count == 6
    assert len(out.components[0]) == 6
    # inserted midpoints are collinear with their edge endpoints
    assert np.allclose(out.components[0][1], [1, 0, 0])
    out.validate()


def test_from_integer_curve_preserves_points_and_length():
    rng = np.random.default_rng(4)
    base = random_integral_curve(7, rng).components[0]
    scaled = base * 3.0  # every edge now has length 3
    out = from_integer_curve([scaled])
    assert out.edge_count == 21
    for original in scaled:
        assert min(np.linalg.norm(out.components[0] - original, axis=1)) < 1e-9


def test_from_integer_curve_rejects_fractional_edge():
    bad = np.array([[0, 0, 0], [1.5, 0, 0], [0.75, 1.0, 0]], dtype=float)
    with pytest.raises(NonIntegerEdgeError) as err:
        from_integer_curve([bad])
    assert err.value.index == 0
    assert err.value.length == pytest.approx(1.5)


def test_curve_validation_rejects_short_component():
    with pytest.raises(InvalidCurveError):
        IntegralCurve([np.array([[0, 0, 0], [1, 0, 0.0]])]).validate()


def test_farthest_pair_square(unit_square):
    i, j = farthest_vertex_pair(unit_square.components[0])
    d = np.linalg.norm(unit_square.components[0][i] - unit_square.components[0][j])
    assert d == pytest.approx(np.sqrt(2.0), abs=1e-12)


def test_farthest_pair_triangle_tiebreak(unit_triangle):
    assert farthest_vertex_pair(unit_triangle.components[0]) == (0, 1)


def test_farthest_pair_hexagon(regular_hexagon):
    i, j = farthest_vertex_pair(regular_hexagon.components[0])
    d = np.linalg.norm(regular_hexagon.components[0][i] -
                       regular_hexagon.components[0][j])
    assert d == pytest.approx(2.0, abs=1e-12)


def test_is_planar(unit_square, unit_triangle):
    assert is_planar(unit_square) is not None
    assert is_planar(unit_triangle) is not None
    folded = folded_rhombus_curve()
    assert is_planar(folded) is None


def test_is_packing_strictness(regular_hexagon, unit_triangle):
    assert is_packing(unit_triangle.components[0], 0, 2.0)
    hexagon = regular_hexagon.components[0]
    assert not is_packing(hexagon, 0, 2.0)  # opposite vertex exactly at 2
    assert is_packing(hexagon, 0, 2.000001)


def test_is_packing_monotone_in_eps():
    rng = np.random.default_rng(5)
    comp = random_integral_curve(9, rng).components[0]
    radii = np.sort(np.linalg.norm(comp - comp[0], axis=1))
    for eps in np.linspace(0.1, 4.0, 17):
        packed = is_packing(comp, 0, eps)
        assert packed == bool(radii[-1] < eps)


def test_random_integral_curve_is_valid():
    rng = np.random.default_rng(6)
    for n in (3, 4, 5, 8, 13):
        curve = random_integral_curve(n, rng)
        curve.validate()
        assert curve.edge_count == n


def test_regular_polygon_fixture_edges():
    for k in (5, 6, 7):
        curve = regular_polygon_curve(k)
        assert curve.edge_count == k
