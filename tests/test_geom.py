import numpy as np
import pytest

from rhombidome.geom import (
    Circle3,
    CoincidentError,
    DegenerateError,
    DegenerateLineError,
    Plane,
    SeparatedError,
    apex_at_unit_distance,
    circumcenter,
    circumradius,
    distance_to_plane,
    plane_basis,
    point_on_circle_nearest_plane,
    pt,
    reflect_across_line,
    unit_ball_intersection,
)

GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0


def heron_circumradius(a: float, b: float, c: float) -> float:
    s = 0.5 * (a + b + c)
    area = np.sqrt(s * (s - a) * (s - b) * (s - c))
    return a * b * c / (4.0 * area)


def test_unit_ball_intersection_generic():
    circle = unit_ball_intersection(pt(0, 0, 0), pt(1, 0, 0))
    assert np.allclose(circle.center, [0.5, 0, 0])
    assert circle.radius == pytest.approx(np.sqrt(3.0) / 2.0, abs=1e-12)
    assert np.allclose(circle.axis, [1, 0, 0])


def test_unit_ball_intersection_tangent_and_errors():
    circle = unit_ball_intersection(pt(0, 0, 0), pt(2, 0, 0))
    assert circle.radius == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(circle.center, [1, 0, 0])
    with pytest.raises(SeparatedError):
        unit_ball_intersection(pt(0, 0, 0), pt(3, 0, 0))
    with pytest.raises(CoincidentError):
        unit_ball_intersection(pt(0, 0, 0), pt(0, 0, 0))


def test_unit_ball_intersection_circle_points_at_unit_distance():
    rng = np.random.default_rng(0)
    for _ in range(50):
        u = rng.normal(size=3)
        w = u + rng.uniform(0.1, 1.9) * _unit(rng.normal(size=3))
        circle = unit_ball_intersection(u, w)
        for theta in rng.uniform(0, 2 * np.pi, size=8):
            p = _circle_point(circle, theta)
            assert np.linalg.norm(p - u) == pytest.approx(1.0, abs=1e-9)
            assert np.linalg.norm(p - w) == pytest.approx(1.0, abs=1e-9)


def _unit(v):
    return v / np.linalg.norm(v)


def _circle_point(circle, theta):
    e1, e2 = plane_basis(circle.axis)
    return circle.center + circle.radius * (np.cos(theta) * e1 + np.sin(theta) * e2)


def test_circumradius_equilateral():
    r = circumradius(pt(0, 0, 0), pt(1, 0, 0), pt(0.5, np.sqrt(3) / 2, 0))
    assert r == pytest.approx(1.0 / np.sqrt(3.0), abs=1e-12)


def test_circumradius_pentagon_triangle_matches_heron():
    # triangle on vertices 1, 3, 4 of a regular unit-side pentagon
    radius = 1.0 / (2.0 * np.sin(np.pi / 5.0))
    ang = 2.0 * np.pi * np.arange(5) / 5.0
    p = np.column_stack([radius * np.cos(ang), radius * np.sin(ang), np.zeros(5)])
    got = circumradius(p[0], p[2], p[3])
    assert np.linalg.norm(p[0] - p[2]) == pytest.approx(GOLDEN, abs=1e-12)
    want = heron_circumradius(GOLDEN, 1.0, GOLDEN)
    assert got == pytest.approx(want, abs=1e-12)
    assert got == pytest.approx(0.85065080835204, abs=1e-9)


def test_circumradius_degenerate():
    with pytest.raises(DegenerateError):
        circumradius(pt(0, 0, 0), pt(1, 0, 0), pt(2, 0, 0))
    with pytest.raises(DegenerateError):
        circumradius(pt(0, 0, 0), pt(0, 0, 0), pt(1, 1, 0))


def test_circumcenter_is_equidistant():
    rng = np.random.default_rng(1)
    for _ in range(100):
        a, b, c = rng.normal(size=(3, 3))
        try:
            center = circumcenter(a, b, c)
        except DegenerateError:
            continue
        da, db, dc = (np.linalg.norm(center - x) for x in (a, b, c))
        assert da == pytest.approx(db, abs=1e-9)
        assert da == pytest.approx(dc, abs=1e-9)
        assert da == pytest.approx(circumradius(a, b, c), abs=1e-9)


def test_apex_tetrahedron_height():
    a, b, c = pt(0, 0, 0), pt(1, 0, 0), pt(0.5, np.sqrt(3) / 2, 0)
    apex = apex_at_unit_distance(a, b, c, +1)
    assert apex is not None
    assert apex[2] == pytest.approx(np.sqrt(2.0 / 3.0), abs=1e-12)
    for x in (a, b, c):
        assert np.linalg.norm(apex - x) == pytest.approx(1.0, abs=1e-9)


def test_apex_pentagon_height_and_nonexistence():
    radius = 1.0 / (2.0 * np.sin(np.pi / 5.0))
    ang = 2.0 * np.pi * np.arange(5) / 5.0
    p = np.column_stack([radius * np.cos(ang), radius * np.sin(ang), np.zeros(5)])
    apex = apex_at_unit_distance(p[0], p[2], p[3], +1)
    want = np.sqrt(1.0 - heron_circumradius(GOLDEN, 1.0, GOLDEN) ** 2)
    assert abs(apex[2]) == pytest.approx(want, abs=1e-9)
    assert apex_at_unit_distance(pt(0, 0, 0), pt(2, 0, 0), pt(1, 1.2, 0)) is None


def test_apex_side_selection():
    a, b, c = pt(0, 0, 0), pt(1, 0, 0), pt(0.5, np.sqrt(3) / 2, 0)
    up = apex_at_unit_distance(a, b, c, +1)
    down = apex_at_unit_distance(a, b, c, -1)
    assert up[2] > 0 > down[2]


def test_reflect_across_line_examples():
    assert np.allclose(reflect_across_line(pt(0, 1, 0), pt(0, 0, 0), pt(1, 0, 0)),
                       [0, -1, 0])
    on_line = reflect_across_line(pt(0.3, 0, 0), pt(0, 0, 0), pt(1, 0, 0))
    assert np.allclose(on_line, [0.3, 0, 0])
    corner = reflect_across_line(pt(1, 0, 0), pt(0, 0, 0), pt(1, 1, 0))
    assert np.allclose(corner, [0, 1, 0], atol=1e-12)
    with pytest.raises(DegenerateLineError):
        reflect_across_line(pt(0, 1, 0), pt(0, 0, 0), pt(0, 0, 0))


def test_reflect_is_isometric_involution():
    rng = np.random.default_rng(2)
    for _ in range(100):
        p, a, b = rng.normal(size=(3, 3))
        if np.linalg.norm(a - b) < 1e-3:
            continue
        q = reflect_across_line(p, a, b)
        assert np.allclose(reflect_across_line(q, a, b), p, atol=1e-12)
        assert np.linalg.norm(q - a) == pytest.approx(np.linalg.norm(p - a), abs=1e-9)
        assert np.linalg.norm(q - b) == pytest.approx(np.linalg.norm(p - b), abs=1e-9)


def test_point_on_circle_nearest_plane_parallel():
    circle = Circle3(center=pt(0, 0, 1), radius=1.0, axis=pt(0, 0, 1))
    plane = Plane.make(pt(0, 0, 0), pt(0, 0, 1))
    p = point_on_circle_nearest_plane(circle, plane)
    assert distance_to_plane(p, plane) == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(p - circle.center) == pytest.approx(1.0, abs=1e-12)


def test_point_on_circle_nearest_plane_crossing():
    # circle of points at unit distance from (0,0,0) and (1,0,0.5) crosses z=0
    top = pt(1, 0, 0.5)
    circle = unit_ball_intersection(pt(0, 0, 0), top)
    plane = Plane.make(pt(0, 0, 0), pt(0, 0, 1))
    p = point_on_circle_nearest_plane(circle, plane)
    assert abs(p[2]) < 1e-9


def test_point_on_circle_nearest_plane_minimizes():
    rng = np.random.default_rng(3)
    plane = Plane.make(pt(0.2, -0.1, 0.4), _unit(np.array([0.3, -1.0, 0.5])))
    for _ in range(50):
        center = rng.normal(size=3)
        axis = _unit(rng.normal(size=3))
        circle = Circle3(center=center, radius=rng.uniform(0.1, 2.0), axis=axis)
        best = point_on_circle_nearest_plane(circle, plane)
        d_best = distance_to_plane(best, plane)
        sampled = [distance_to_plane(_circle_point(circle, t), plane)
                   for t in np.linspace(0, 2 * np.pi, 720, endpoint=False)]
        assert d_best <= min(sampled) + 1e-9


def test_point_on_circle_radius_zero():
    circle = Circle3(center=pt(1, 2, 3), radius=0.0, axis=pt(0, 0, 1))
    plane = Plane.make(pt(0, 0, 0), pt(0, 0, 1))
    assert np.allclose(point_on_circle_nearest_plane(circle, plane), [1, 2, 3])


def test_distance_to_plane():
    plane = Plane.make(pt(0, 0, 0), pt(0, 0, 1))
    assert distance_to_plane(pt(0, 0, 5), plane) == 5.0
    assert distance_to_plane(pt(3, -2, 0), plane) == 0.0
    assert distance_to_plane(pt(1, 1, 1), plane) == 1.0
    assert distance_to_plane(pt(1, 1, -1), plane) == 1.0
