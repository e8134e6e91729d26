import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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


# ---------------------------------------------------------------------------
# the scalar kernels against the row-form formulas they replaced, bit for bit


def _row_sub(a, b):
    return [a[0] - b[0], a[1] - b[1], a[2] - b[2]]


def _row_dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _row_cross(a, b):
    return [a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0]]


def _row_normalize(v):
    n = math.hypot(*v)
    if n <= 1e-12:
        raise DegenerateError("cannot normalize a (near-)zero vector")
    return [x / n for x in v]


def _row_triangle_frame(a, b, c):
    if math.dist(a, b) <= geom.EPS or math.dist(a, c) <= geom.EPS or math.dist(b, c) <= geom.EPS:
        raise DegenerateError("coincident triangle vertices")
    u, v = _row_sub(b, a), _row_sub(c, a)
    n = _row_cross(u, v)
    if math.hypot(*n) <= geom.EPS:
        raise DegenerateError("collinear triangle vertices")
    scale = 2.0 * _row_dot(n, n)
    uu, vv = _row_dot(u, u), _row_dot(v, v)
    center = [x + (vv * p + uu * q) / scale
              for x, p, q in zip(a, _row_cross(n, u), _row_cross(v, n))]
    return center, u, v, n


def row_circumcenter(a, b, c):
    return _row_triangle_frame(a, b, c)[0]


def row_circumradius(a, b, c):
    _, u, v, n = _row_triangle_frame(a, b, c)
    return math.hypot(*u) * math.dist(u, v) * math.hypot(*v) / (2.0 * math.hypot(*n))


def row_apex_at_unit_distance(a, b, c, side=+1):
    center, _, _, n = _row_triangle_frame(a, b, c)
    r2 = math.dist(center, a) ** 2
    if r2 >= 1.0:
        return None
    lift = (1 if side >= 0 else -1) * math.sqrt(1.0 - r2)
    return [x + lift * y for x, y in zip(center, _row_normalize(n))]


def row_local_bridge(points, v, i, normal=None):
    n = len(v)
    p, q = points[v[i]], points[v[(i + 1) % n]]
    r, s = points[v[(i + 2) % n]], points[v[(i + 3) % n]]
    center = [0.5 * (a + b) for a, b in zip(p, s)]
    away = [c - 0.5 * (a + b) for c, a, b in zip(center, q, r)]
    span = math.dist(p, s)
    radius = 1.0
    if span > geom.EPS:
        axis = [(b - a) / span for a, b in zip(p, s)]
        away = _row_cross(axis, _row_cross(away, axis))
        radius = math.sqrt(max(0.0, 1.0 - 0.25 * span * span))
        if normal is not None and math.hypot(*away) <= geom.EPS:
            away = _row_cross(axis, normal)
    norm = math.hypot(*away)
    if norm <= geom.EPS:
        return None
    return [c + radius * x / norm for c, x in zip(center, away)]


def _outcome(fn, *args):
    """``fn(*args)`` with every float as its bits, or the error it raised."""
    try:
        got = fn(*args)
    except DegenerateError as exc:
        return "DegenerateError", str(exc)
    if isinstance(got, float):
        return got.hex()
    if got is None:
        return None
    assert type(got) is list and all(type(x) is float for x in got)
    return [x.hex() for x in got]


_COORD = st.floats(-2.0, 2.0)
_ROW = st.lists(_COORD, min_size=3, max_size=3)
# offsets from an exact degeneracy, around each threshold the kernels test
_NUDGE = st.sampled_from([0.0, 5e-324, 1e-300, 1e-16, 1e-13, 1e-12, 1e-10,
                          1e-9, 2e-9, 1e-8, 1e-6, 1e-3])


def _along(a, t, d, nudge, e):
    """a + t * d + nudge * e."""
    return [x + t * y + nudge * z for x, y, z in zip(a, d, e)]


def _unit_row(draw):
    v = draw(_ROW)
    n = math.hypot(*v)
    return [x / n for x in v] if n > 1e-3 else [0.0, 0.0, 1.0]


def _across(x, d):
    """A unit row orthogonal to the unit row ``x``, from d when it can."""
    for w in (d, [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]):
        y = _row_cross(x, w)
        if math.hypot(*y) > 1e-3:
            return _row_normalize(y)


@st.composite
def triangles(draw):
    """Three rows: random, nearly collinear, nearly coincident, or on a circle
    of radius near 1, where the apex appears."""
    a, d, e = draw(_ROW), draw(_ROW), draw(_ROW)
    kind = draw(st.sampled_from(["random", "collinear", "coincident", "circle"]))
    if kind == "random":
        b, c = draw(_ROW), draw(_ROW)
    elif kind == "collinear":
        b = _along(a, 1.0, d, 0.0, e)
        c = _along(a, draw(_COORD), d, draw(_NUDGE), e)
    elif kind == "coincident":
        b, c = draw(_ROW), _along(a, 0.0, d, draw(_NUDGE), e)
    else:
        x = _unit_row(draw)
        y = _across(x, d)
        radius = 1.0 + draw(st.sampled_from([-1.0, 1.0])) * draw(_NUDGE)
        a, b, c = ([o + radius * (math.cos(t) * p + math.sin(t) * q) for o, p, q in zip(e, x, y)]
                   for t in draw(st.lists(st.floats(0.0, 2.0 * math.pi), min_size=3, max_size=3)))
    return draw(st.permutations([a, b, c]))


@st.composite
def bridge_windows(draw):
    """``(points, ids, i, normal)`` of a window [p q r s]: random, or with the
    midpoint m of q and r near the axis s - p, s near p, or a span near 2."""
    p, e, half = draw(_ROW), draw(_ROW), draw(_ROW)
    kind = draw(st.sampled_from(["random", "near_axis", "coincident_ends", "span_two"]))
    if kind == "random":
        q, r, s = draw(_ROW), draw(_ROW), draw(_ROW)
    else:
        axis = _unit_row(draw)
        span = {"near_axis": draw(st.floats(0.0, 2.0)),
                "coincident_ends": draw(_NUDGE),
                "span_two": 2.0 + draw(st.sampled_from([-1.0, 1.0])) * draw(_NUDGE)}[kind]
        s = _along(p, span, axis, 0.0, e)
        m = _along(p, draw(st.floats(-1.0, 3.0)), axis, draw(_NUDGE), e)
        q, r = [x + y for x, y in zip(m, half)], [x - y for x, y in zip(m, half)]
    turn = draw(st.integers(0, 3))
    ids = [(j + turn) % 4 for j in range(4)]
    normal = _unit_row(draw) if draw(st.booleans()) else None
    return [p, q, r, s], ids, (-turn) % 4, normal


_BITS = settings(derandomize=True, max_examples=400, deadline=None, database=None)
_FLAT = ([0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0])
_SAME = ([0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 1.0, 0.0])
_WIDE = ([0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [1.0, 1.2, 0.0])  # circumradius above 1


@_BITS
@given(triangles(), st.sampled_from([-1, 0, 1]))
@example(list(_FLAT), 1)
@example(list(_SAME), 1)
@example(list(_WIDE), -1)
def test_triangle_kernels_keep_the_row_formula_bits(abc, side):
    assert _outcome(circumcenter, *abc) == _outcome(row_circumcenter, *abc)
    assert _outcome(circumradius, *abc) == _outcome(row_circumradius, *abc)
    assert (_outcome(apex_at_unit_distance, *abc, side)
            == _outcome(row_apex_at_unit_distance, *abc, side))


_ON_AXIS = [[0.0, 0.0, 0.0], [0.3, 0.5, 0.0], [0.3, -0.5, 0.0], [1.5, 0.0, 0.0]]


@_BITS
@given(bridge_windows())
@example((_ON_AXIS, [0, 1, 2, 3], 0, None))
@example((_ON_AXIS, [0, 1, 2, 3], 0, [0.0, 0.0, 1.0]))
def test_local_bridge_keeps_the_row_formula_bits(window):
    from rhombidome.cobordism import _local_bridge

    assert _outcome(_local_bridge, *window) == _outcome(row_local_bridge, *window)
