import math

import numpy as np
import pytest

import conftest
from rhombidome import geom
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
    normalize,
    plane_basis,
    point_on_circle_nearest_plane,
    reflect_across_line,
    unit_ball_intersection,
)

GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0


def heron_circumradius(a: float, b: float, c: float) -> float:
    s = 0.5 * (a + b + c)
    area = np.sqrt(s * (s - a) * (s - b) * (s - c))
    return a * b * c / (4.0 * area)


def test_unit_ball_intersection_generic():
    circle = unit_ball_intersection([0.0, 0.0, 0.0], [1.0, 0.0, 0.0])
    assert np.allclose(circle.center, [0.5, 0, 0])
    assert circle.radius == pytest.approx(np.sqrt(3.0) / 2.0, abs=1e-12)
    assert np.allclose(circle.axis, [1, 0, 0])


def test_unit_ball_intersection_tangent_and_errors():
    circle = unit_ball_intersection([0.0, 0.0, 0.0], [2.0, 0.0, 0.0])
    assert circle.radius == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(circle.center, [1, 0, 0])
    with pytest.raises(SeparatedError):
        unit_ball_intersection([0.0, 0.0, 0.0], [3.0, 0.0, 0.0])
    with pytest.raises(CoincidentError):
        unit_ball_intersection([0.0, 0.0, 0.0], [0.0, 0.0, 0.0])


def test_unit_ball_intersection_circle_points_at_unit_distance():
    rng = np.random.default_rng(0)
    for _ in range(50):
        u = rng.normal(size=3)
        w = u + rng.uniform(0.1, 1.9) * _unit(rng.normal(size=3))
        circle = unit_ball_intersection(u.tolist(), w.tolist())
        for theta in rng.uniform(0, 2 * np.pi, size=8):
            p = _circle_point(circle, theta)
            assert np.linalg.norm(p - u) == pytest.approx(1.0, abs=1e-9)
            assert np.linalg.norm(p - w) == pytest.approx(1.0, abs=1e-9)


def _unit(v):
    return v / np.linalg.norm(v)


def _circle_point(circle, theta):
    e1, e2 = np.array(plane_basis(circle.axis))
    return np.array(circle.center) + circle.radius * (np.cos(theta) * e1 + np.sin(theta) * e2)


def test_circumradius_equilateral():
    r = circumradius([0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.5, math.sqrt(3) / 2, 0.0])
    assert r == pytest.approx(1.0 / np.sqrt(3.0), abs=1e-12)


def test_circumradius_pentagon_triangle_matches_heron():
    # triangle on vertices 1, 3, 4 of a regular unit-side pentagon
    radius = 1.0 / (2.0 * np.sin(np.pi / 5.0))
    ang = 2.0 * np.pi * np.arange(5) / 5.0
    p = np.column_stack([radius * np.cos(ang), radius * np.sin(ang), np.zeros(5)])
    got = circumradius(*p[[0, 2, 3]].tolist())
    assert np.linalg.norm(p[0] - p[2]) == pytest.approx(GOLDEN, abs=1e-12)
    want = heron_circumradius(GOLDEN, 1.0, GOLDEN)
    assert got == pytest.approx(want, abs=1e-12)
    assert got == pytest.approx(0.85065080835204, abs=1e-9)


def test_circumradius_degenerate():
    with pytest.raises(DegenerateError):
        circumradius([0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0])
    with pytest.raises(DegenerateError):
        circumradius([0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 1.0, 0.0])


def test_circumcenter_is_equidistant():
    rng = np.random.default_rng(1)
    for _ in range(100):
        a, b, c = rng.normal(size=(3, 3)).tolist()
        try:
            center = circumcenter(a, b, c)
        except DegenerateError:
            continue
        da, db, dc = (np.linalg.norm(np.subtract(center, x)) for x in (a, b, c))
        assert da == pytest.approx(db, abs=1e-9)
        assert da == pytest.approx(dc, abs=1e-9)
        assert da == pytest.approx(circumradius(a, b, c), abs=1e-9)


def test_apex_tetrahedron_height():
    a, b, c = [0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.5, math.sqrt(3) / 2, 0.0]
    apex = apex_at_unit_distance(a, b, c, +1)
    assert apex is not None
    assert apex[2] == pytest.approx(np.sqrt(2.0 / 3.0), abs=1e-12)
    for x in (a, b, c):
        assert np.linalg.norm(np.subtract(apex, x)) == pytest.approx(1.0, abs=1e-9)


def test_apex_pentagon_height_and_nonexistence():
    radius = 1.0 / (2.0 * np.sin(np.pi / 5.0))
    ang = 2.0 * np.pi * np.arange(5) / 5.0
    p = np.column_stack([radius * np.cos(ang), radius * np.sin(ang), np.zeros(5)])
    apex = apex_at_unit_distance(*p[[0, 2, 3]].tolist(), +1)
    want = np.sqrt(1.0 - heron_circumradius(GOLDEN, 1.0, GOLDEN) ** 2)
    assert abs(apex[2]) == pytest.approx(want, abs=1e-9)
    assert apex_at_unit_distance([0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [1.0, 1.2, 0.0]) is None


def test_apex_side_selection():
    a, b, c = [0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.5, math.sqrt(3) / 2, 0.0]
    up = apex_at_unit_distance(a, b, c, +1)
    down = apex_at_unit_distance(a, b, c, -1)
    assert up[2] > 0 > down[2]


def test_reflect_across_line_examples():
    assert np.allclose(reflect_across_line([0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]),
                       [0, -1, 0])
    on_line = reflect_across_line([0.3, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0])
    assert np.allclose(on_line, [0.3, 0, 0])
    corner = reflect_across_line([1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 1.0, 0.0])
    assert np.allclose(corner, [0, 1, 0], atol=1e-12)
    with pytest.raises(DegenerateLineError):
        reflect_across_line([0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0])


def test_reflect_is_isometric_involution():
    rng = np.random.default_rng(2)
    for _ in range(100):
        p, a, b = rng.normal(size=(3, 3))
        if np.linalg.norm(a - b) < 1e-3:
            continue
        q = np.array(reflect_across_line(p.tolist(), a.tolist(), b.tolist()))
        assert np.allclose(reflect_across_line(q.tolist(), a.tolist(), b.tolist()), p,
                           atol=1e-12)
        assert np.linalg.norm(q - a) == pytest.approx(np.linalg.norm(p - a), abs=1e-9)
        assert np.linalg.norm(q - b) == pytest.approx(np.linalg.norm(p - b), abs=1e-9)


def test_point_on_circle_nearest_plane_parallel():
    circle = Circle3(center=[0.0, 0.0, 1.0], radius=1.0, axis=[0.0, 0.0, 1.0])
    plane = Plane([0.0, 0.0, 0.0], [0.0, 0.0, 1.0])
    p = point_on_circle_nearest_plane(circle, plane)
    assert distance_to_plane(p, plane) == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(np.subtract(p, circle.center)) == pytest.approx(1.0, abs=1e-12)


def test_point_on_circle_nearest_plane_crossing():
    # circle of points at unit distance from (0,0,0) and (1,0,0.5) crosses z=0
    top = [1.0, 0.0, 0.5]
    circle = unit_ball_intersection([0.0, 0.0, 0.0], top)
    plane = Plane([0.0, 0.0, 0.0], [0.0, 0.0, 1.0])
    p = point_on_circle_nearest_plane(circle, plane)
    assert abs(p[2]) < 1e-9


def test_point_on_circle_nearest_plane_minimizes():
    rng = np.random.default_rng(3)
    plane = Plane([0.2, -0.1, 0.4], normalize([0.3, -1.0, 0.5]))
    for _ in range(50):
        center = rng.normal(size=3).tolist()
        axis = _unit(rng.normal(size=3)).tolist()
        circle = Circle3(center=center, radius=float(rng.uniform(0.1, 2.0)), axis=axis)
        best = point_on_circle_nearest_plane(circle, plane)
        d_best = distance_to_plane(best, plane)
        sampled = [distance_to_plane(_circle_point(circle, t), plane)
                   for t in np.linspace(0, 2 * np.pi, 720, endpoint=False)]
        assert d_best <= min(sampled) + 1e-9


def test_point_on_circle_radius_zero():
    circle = Circle3(center=[1.0, 2.0, 3.0], radius=0.0, axis=[0.0, 0.0, 1.0])
    plane = Plane([0.0, 0.0, 0.0], [0.0, 0.0, 1.0])
    assert np.allclose(point_on_circle_nearest_plane(circle, plane), [1, 2, 3])


def test_distance_to_plane():
    plane = Plane([0.0, 0.0, 0.0], [0.0, 0.0, 1.0])
    assert distance_to_plane([0.0, 0.0, 5.0], plane) == 5.0
    assert distance_to_plane([3.0, -2.0, 0.0], plane) == 0.0
    assert distance_to_plane([1.0, 1.0, 1.0], plane) == 1.0
    assert distance_to_plane([1.0, 1.0, -1.0], plane) == 1.0


# ---------------------------------------------------------------------------
# the float kernels against their numpy references (tests/conftest.py)


def _points(k: int, scale: float = 1.0):
    return lambda rng: rng.normal(scale=scale, size=(k, 3)).tolist()


def _ball_pair(rng):
    u = rng.normal(size=3)
    return [u.tolist(), (u + rng.uniform(0.05, 1.95) * _unit(rng.normal(size=3))).tolist()]


def _apex_args(rng):
    return _points(3, 0.5)(rng) + [int(rng.choice([-1, 1]))]


def _row(rng) -> list[float]:
    return rng.normal(size=3).tolist()


def _point_and_plane(rng):
    return [_row(rng), Plane(_row(rng), normalize(_row(rng)))]


def _circle_and_plane(rng):
    circle = Circle3(center=_row(rng), radius=float(rng.uniform(0.1, 2.0)),
                     axis=_unit(rng.normal(size=3)).tolist())
    return [circle, Plane(_row(rng), normalize(_row(rng)))]


# kernel name -> draw of its random arguments
KERNELS = {
    "dist": _points(2),
    "cross3": _points(2),
    "normalize": _points(1),
    "unit_ball_intersection": _ball_pair,
    "circumcenter": _points(3),
    "circumradius": _points(3),
    "apex_at_unit_distance": _apex_args,
    "reflect_across_line": _points(3),
    "plane_basis": lambda rng: [_unit(rng.normal(size=3)).tolist()],
    "signed_plane_distance": _point_and_plane,
    "point_on_circle_nearest_plane": _circle_and_plane,
}


def _pair(name: str):
    return getattr(geom, name), getattr(conftest, f"numpy_{name}")


def _assert_agree(got, want):
    """Same kind of result, a row of Python floats for an array, and values
    within 1e-12."""
    if want is None:
        assert got is None
    elif isinstance(want, Circle3):
        assert isinstance(got, Circle3)
        _assert_agree((got.center, got.radius, got.axis),
                      (want.center, want.radius, want.axis))
    elif isinstance(want, tuple):
        assert isinstance(got, tuple) and len(got) == len(want)
        for g, w in zip(got, want):
            _assert_agree(g, w)
    else:
        if isinstance(want, np.ndarray):
            assert type(got) is list and len(got) == len(want) == 3
            assert all(type(x) is float for x in got)
        else:
            assert type(got) is float
        assert np.max(np.abs(np.asarray(got) - want)) <= 1e-12


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_float_kernel_matches_numpy_reference(name):
    kernel, reference = _pair(name)
    rng = np.random.default_rng(20)
    for _ in range(200):
        args = KERNELS[name](rng)
        _assert_agree(kernel(*args), reference(*args))


_TANGENT = ([0.0, 0.0, 0.0], [2.0, 0.0, 0.0])
_Z_PLANE = Plane([0.0, 0.0, 0.0], [0.0, 0.0, 1.0])


@pytest.mark.parametrize("name, args, error", [
    ("unit_ball_intersection", ([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]), CoincidentError),
    ("unit_ball_intersection", ([0.0, 0.0, 0.0], [0.0, 2.5, 0.0]), SeparatedError),
    ("normalize", ([0.0, 0.0, 0.0],), DegenerateError),
    ("circumcenter", ([0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 1.0, 0.0]), DegenerateError),
    ("circumradius", ([0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]), DegenerateError),
    ("apex_at_unit_distance", ([0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]),
     DegenerateError),
    ("apex_at_unit_distance", ([0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [2.0, 2.0, 2.0]),
     DegenerateError),
    ("reflect_across_line", ([0.0, 1.0, 0.0], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0]),
     DegenerateLineError),
], ids=["coincident_balls", "separated_balls", "zero_vector", "coincident_circumcenter",
        "collinear_circumradius", "coincident_apex", "collinear_apex", "coincident_line"])
def test_float_kernel_raises_as_reference(name, args, error):
    messages = []
    for fn in _pair(name):
        with pytest.raises(error) as info:
            fn(*args)
        assert type(info.value) is error
        messages.append(str(info.value))
    assert messages[0] == messages[1]


@pytest.mark.parametrize("name, args", [
    ("unit_ball_intersection", _TANGENT),
    ("point_on_circle_nearest_plane", (unit_ball_intersection(*_TANGENT), _Z_PLANE)),
    # the whole circle equidistant from the plane: parameter angle 0
    ("point_on_circle_nearest_plane", (Circle3([0.0, 0.0, 1.0], 1.0, [0.0, 0.0, 1.0]), _Z_PLANE)),
    ("plane_basis", ([1.0, 0.0, 0.0],)),
    ("plane_basis", ([-1.0, 0.0, 0.0],)),
    ("plane_basis", (_unit([1.0, 1e-7, 0.0]).tolist(),)),
], ids=["tangent_circle", "radius_zero", "equidistant", "x_axis", "minus_x_axis", "near_x"])
def test_float_kernel_degenerate_values_match_reference(name, args):
    kernel, reference = _pair(name)
    _assert_agree(kernel(*args), reference(*args))
