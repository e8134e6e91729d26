import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import folded_rhombus_curve, loop_farthest_vertex_pair, regular_polygon_curve
from rhombidome import curve as curve_module
from rhombidome.cobordism import reduce_to_rhombi
from rhombidome.curve import (
    IntegralCurve,
    InvalidCurveError,
    NonIntegerEdgeError,
    farthest_vertex_pair,
    from_integer_curve,
    is_planar,
    plane_through,
    random_integral_curve,
)
from rhombidome.geom import normalize, plane_basis
from rhombidome.surface import validate_ledger


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


def test_from_integer_curve_keeps_negative_zero():
    # each edge starts at its input row itself, signed zeros included
    raw = np.array([[-0.0, 0.0, -0.0], [3.0, -0.0, 0.0], [3.0, 4.0, 0.0]])
    out = from_integer_curve([raw]).components[0]
    assert np.signbit(out[0]).tolist() == [True, False, True]
    assert np.signbit(out[3]).tolist() == [False, True, False]
    assert np.array_equal(out[[0, 3, 7]], raw)


def test_from_integer_curve_limits_the_unit_edges(monkeypatch):
    monkeypatch.setattr(curve_module, "MAX_UNIT_EDGES", 12)
    triangle = np.array([[0, 0, 0], [3, 0, 0], [3, 4, 0]], dtype=float)
    assert from_integer_curve([triangle]).edge_count == 12
    with pytest.raises(InvalidCurveError, match="curve has 14 unit edges"):
        from_integer_curve([triangle, np.array([[0, 0, 5], [1, 0, 5.0]])])


def test_from_integer_curve_rejects_fractional_edge():
    bad = np.array([[0, 0, 0], [1.5, 0, 0], [0.75, 1.0, 0]], dtype=float)
    with pytest.raises(NonIntegerEdgeError) as err:
        from_integer_curve([bad])
    assert err.value.index == 0
    assert err.value.length == pytest.approx(1.5)


def test_curve_validation_rejects_short_component():
    with pytest.raises(InvalidCurveError):
        IntegralCurve([np.array([[0, 0, 0], [1, 0, 0.0]])]).validate()


def test_curve_validation_measures_huge_edges_without_overflow():
    # squaring an edge near 1e300 overflows; the detail must still name the
    # non-unit edge, not a RuntimeWarning (pytest turns warnings into errors)
    rng = np.random.default_rng(3)
    ledger = reduce_to_rhombi(random_integral_curve(9, rng))
    ledger.initial.components[0][4, 1] = 1e300
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = validate_ledger(ledger)
        far = IntegralCurve([np.array([[0, 0, 0], [1.7e308, 0, 0], [-1.7e308, 0, 0]])])
        with pytest.raises(InvalidCurveError, match=r"non-unit edge \(off by inf\)"):
            far.validate()
    assert report.entries == [
        ("initial_curve", False, "component 0 has a non-unit edge (off by 1e+300)")]


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


def _out_and_back_walk(rng: np.random.Generator, longest: int = 30) -> np.ndarray:
    """Vertices of a closed cubic-lattice walk that retraces its steps."""
    axes = rng.integers(0, 3, size=int(rng.integers(2, longest)))
    steps = np.eye(3)[axes] * rng.choice([-1.0, 1.0], size=(len(axes), 1))
    steps = np.vstack([steps, -steps[::-1]])
    return np.cumsum(steps, axis=0)


def test_farthest_pair_matches_loop_reference():
    # lattice walks are full of exact ties; n = 400 and the long walks span
    # more than one block of 256 rows
    rng = np.random.default_rng(17)
    comps = [random_integral_curve(n, rng).components[0]
             for n in [*range(3, 60), 96, 400]]
    comps += [_out_and_back_walk(rng) for _ in range(300)]
    comps += [_out_and_back_walk(rng, longest=400) for _ in range(3)]
    for comp in comps:
        assert farthest_vertex_pair(comp) == loop_farthest_vertex_pair(comp)


def test_is_planar(unit_square, unit_triangle):
    assert is_planar(unit_square) is not None
    assert is_planar(unit_triangle) is not None
    folded = folded_rhombus_curve()
    assert is_planar(folded) is None


# how far the drawn rows stray across the line, and off one plane through it
_STRAY = st.sampled_from([1.0, 1e-3, 1e-6, 1e-9, 1e-12, 0.0])


@st.composite
def line_clouds(draw):
    """(rows, iv, iw): rows v and w 0.5 to 4 apart and up to 20 more rows
    near the line through them, from a generic cloud to nearly collinear
    and nearly planar ones, in a drawn order."""
    frame = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=9, max_size=9))).reshape(3, 3)
    if abs(np.linalg.det(frame)) < 0.1:
        frame = np.eye(3)
    d, across, up = np.linalg.qr(frame)[0].T
    v = np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3)))
    spread, lift = draw(_STRAY), draw(_STRAY)
    rows = [v, v + draw(st.floats(0.5, 4.0)) * d]
    for _ in range(draw(st.integers(0, 20))):
        s, x, y = (draw(st.floats(-1.0, 1.0)) for _ in range(3))
        rows.append(v + 5.0 * s * d + spread * (x * across + lift * y * up))
    order = draw(st.permutations(range(len(rows))))
    return [rows[i].tolist() for i in order], order.index(0), order.index(1)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(line_clouds())
def test_plane_through_matches_eigh_of_the_restricted_form(cloud):
    rows, iv, iw = cloud
    plane = plane_through(rows, iv, iw)
    normal, v = np.array(plane.normal), np.array(rows[iv])
    d = normalize((np.array(rows[iw]) - v).tolist())
    assert plane.base == rows[iv]
    assert abs(np.linalg.norm(normal) - 1.0) <= 1e-12
    assert abs(normal @ d) <= 1e-12
    # the reference: the eigenvector of the least eigenvalue of the second
    # moments about v, restricted to the same basis across the line
    basis = np.array(plane_basis(d)).T
    rel = np.array(rows) - v
    form = basis.T @ (rel.T @ rel) @ basis
    reference = basis @ np.linalg.eigh(form)[1][:, 0]
    ours, least = (float(np.sum((rel @ n) ** 2)) for n in (normal, reference))
    assert ours <= least + 1e-15 * float(np.sum(rel ** 2))


@pytest.mark.parametrize("rows", [
    [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [-1.5, 0.0, 0.0]],
    [[0.0, 1.0, 0.0], [0.0, 3.0, 0.0], [0.0, 2.0, 0.0]],
    [[1.0, 2.0, 3.0], [1.0, 2.0, 4.0], [1.0, 2.0, 3.0], [1.0, 2.0, 4.0]],
], ids=["x_axis", "y_axis", "z_out_and_back"])
def test_plane_through_collinear_rows(rows):
    # every row is on the line, so a = b = c = 0 and the normal is e1
    d = normalize([x - y for x, y in zip(rows[1], rows[0])])
    normal = plane_through(rows, 0, 1).normal
    assert normal == plane_basis(d)[0]
    assert abs(np.linalg.norm(normal) - 1.0) <= 1e-12
    assert abs(np.dot(normal, d)) <= 1e-12


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
