"""Euclidean primitives used by every other module.

Points and vectors are rows: lists of three Python floats.  Every kernel
takes rows and returns rows, and computes on them with ``math`` functions
and one rounding per operation; a caller that holds numpy arrays converts
them once, at its own boundary.  On single 3-vectors numpy's per-call cost
dwarfs the arithmetic, and numpy would route a dot product through the BLAS
(which may fuse its multiply-adds) and ``arctan2``, ``arccos`` and ``hypot``
through its SIMD loops, whose last bits vary with the build and the CPU.
So the bits of every point these kernels return depend on the
interpreter's float arithmetic and libm alone.

The kernels that every pentagon peel runs (the triangle frame behind
:func:`circumcenter`, :func:`circumradius` and
:func:`apex_at_unit_distance`, and the producer's bridge) unpack their rows
into scalars, ``ax, ay, az = a``, and spell each formula out with the same
operations in the same order as its row form, building no temporary rows.
``tests/test_geom.py`` pins their output bits to the row formulas.

Coincidence and unit-length predicates, here and in every other module,
compare against one fixed absolute threshold, :data:`EPS` = 1e-9, so a
verdict depends on its input alone.  Absolute means the inputs must sit
where the float spacing is well below it: past about |x| = 4.5e6 the
spacing of a coordinate reaches 1e-9.  Nothing in this module keeps state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "EPS",
    "Plane",
    "Circle3",
    "GeomError",
    "SeparatedError",
    "CoincidentError",
    "DegenerateError",
    "DegenerateLineError",
    "dist",
    "normalize",
    "dot",
    "cross3",
    "distance_to_plane",
    "signed_plane_distance",
    "unit_ball_intersection",
    "circumcenter",
    "circumradius",
    "apex_at_unit_distance",
    "reflect_across_line",
    "plane_basis",
    "point_on_circle_nearest_plane",
]


class GeomError(ValueError):
    """Base class for geometric failures."""


class SeparatedError(GeomError):
    """Two unit balls are too far apart to intersect."""


class CoincidentError(GeomError):
    """Two centers coincide; the intersection locus is a whole sphere.

    Raised instead of silently returning a sphere so that callers apply
    their documented degenerate-pivot policy.
    """


class DegenerateError(GeomError):
    """Collinear or coincident points where a proper triangle is required."""


class DegenerateLineError(GeomError):
    """The two points meant to span a line coincide."""


# The geometric threshold of every coincidence and unit-length predicate.
EPS = 1e-9

_X = (1.0, 0.0, 0.0)
_Y = (0.0, 1.0, 0.0)


dist = math.dist


def _sub(a: list, b: list) -> list[float]:
    return [a[0] - b[0], a[1] - b[1], a[2] - b[2]]


def dot(a: list, b: list) -> float:
    """a . b, summed left to right."""
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def cross3(a: list, b: list) -> list[float]:
    return [a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0]]


def normalize(v: list) -> list[float]:
    n = math.hypot(*v)
    if n <= 1e-12:
        raise DegenerateError("cannot normalize a (near-)zero vector")
    return [x / n for x in v]


@dataclass(frozen=True)
class Plane:
    """Affine plane through ``base`` with unit ``normal``."""

    base: list[float]
    normal: list[float]


@dataclass(frozen=True)
class Circle3:
    """Circle in 3-space: center, radius and the unit normal of its plane."""

    center: list[float]
    radius: float
    axis: list[float]

    def __post_init__(self) -> None:
        if self.radius < 0:
            raise ValueError("circle radius must be nonnegative")


def signed_plane_distance(p: list, h: Plane) -> float:
    return dot(_sub(p, h.base), h.normal)


def distance_to_plane(p: list, h: Plane) -> float:
    return abs(signed_plane_distance(p, h))


def unit_ball_intersection(u: list, w: list) -> Circle3:
    """Circle of points at distance exactly 1 from both ``u`` and ``w``.

    Center is the midpoint of [u, w], axis the direction w - u, radius
    sqrt(1 - |u,w|^2 / 4).  At |u,w| = 2 the radius degenerates to 0.
    """
    d = math.dist(u, w)
    if d > 2.0 + EPS:
        raise SeparatedError(f"unit balls at distance {d} do not intersect")
    if d <= EPS:
        raise CoincidentError("coincident centers: locus is a whole sphere")
    radius = math.sqrt(max(0.0, 1.0 - 0.25 * d * d))
    return Circle3(center=[0.5 * (p + q) for p, q in zip(u, w)],
                   radius=radius, axis=[(q - p) / d for p, q in zip(u, w)])


def _triangle_frame(a: list, b: list, c: list) -> tuple:
    """The circumcenter, the edge vectors u = b-a and v = c-a and their cross
    product n, each a 3-tuple, and |n| of a triangle that is validated as
    proper."""
    if math.dist(a, b) <= EPS or math.dist(a, c) <= EPS or math.dist(b, c) <= EPS:
        raise DegenerateError("coincident triangle vertices")
    ax, ay, az = a
    ux, uy, uz = b[0] - ax, b[1] - ay, b[2] - az
    vx, vy, vz = c[0] - ax, c[1] - ay, c[2] - az
    nx, ny, nz = uy * vz - uz * vy, uz * vx - ux * vz, ux * vy - uy * vx
    norm = math.hypot(nx, ny, nz)
    if norm <= EPS:
        raise DegenerateError("collinear triangle vertices")
    scale = 2.0 * (nx * nx + ny * ny + nz * nz)
    uu, vv = ux * ux + uy * uy + uz * uz, vx * vx + vy * vy + vz * vz
    # a + (vv * (n x u) + uu * (v x n)) / scale
    center = (ax + (vv * (ny * uz - nz * uy) + uu * (vy * nz - vz * ny)) / scale,
              ay + (vv * (nz * ux - nx * uz) + uu * (vz * nx - vx * nz)) / scale,
              az + (vv * (nx * uy - ny * ux) + uu * (vx * ny - vy * nx)) / scale)
    return center, (ux, uy, uz), (vx, vy, vz), (nx, ny, nz), norm


def circumcenter(a: list, b: list, c: list) -> list[float]:
    return list(_triangle_frame(a, b, c)[0])


def circumradius(a: list, b: list, c: list) -> float:
    """|ab| * |bc| * |ca| / (4 * area)."""
    _, u, v, _, area2 = _triangle_frame(a, b, c)  # area2: twice the triangle area
    return math.hypot(*u) * math.dist(u, v) * math.hypot(*v) / (2.0 * area2)


def apex_at_unit_distance(a: list, b: list, c: list, side: int = +1) -> list[float] | None:
    """Point at distance 1 from all three vertices, or None if none exists.

    Exists iff the circumradius R is below 1; the apex sits at height
    sqrt(1 - R^2) over the circumcenter, on the side of the triangle plane
    selected by the sign of ``side`` (relative to (b-a) x (c-a)).
    """
    center, _, _, (nx, ny, nz), norm = _triangle_frame(a, b, c)
    r2 = math.dist(center, a) ** 2
    if r2 >= 1.0:
        return None
    lift = (1 if side >= 0 else -1) * math.sqrt(1.0 - r2)
    ox, oy, oz = center
    # n / |n| is normalize(n): the frame refused |n| <= EPS
    return [ox + lift * (nx / norm), oy + lift * (ny / norm), oz + lift * (nz / norm)]


def reflect_across_line(p: list, a: list, b: list) -> list[float]:
    """Reflect ``p`` across the line through ``a`` and ``b`` (an isometric involution)."""
    d = _sub(b, a)
    dd = dot(d, d)
    if dd <= EPS * EPS:
        raise DegenerateLineError("line endpoints coincide")
    t = dot(_sub(p, a), d) / dd
    return [2.0 * (x + t * y) - z for x, y, z in zip(a, d, p)]


def plane_basis(normal: list) -> tuple[list[float], list[float]]:
    """Deterministic orthonormal basis of the plane with unit normal ``normal``.

    e1 is the normalized cross product of the normal with global x, falling
    back to global y when the normal is (nearly) parallel to x.  This fixes
    the parameter angle 0 of a circle around that normal, used by
    tie-breaks, so ledgers are deterministic.
    """
    e1 = cross3(normal, _X)
    if math.hypot(*e1) <= 1e-6:
        e1 = cross3(normal, _Y)
    e1 = normalize(e1)
    return e1, cross3(normal, e1)


def point_on_circle_nearest_plane(c: Circle3, h: Plane) -> list[float]:
    """Point of the circle minimizing unsigned distance to the plane.

    The signed distance along the circle is s0 + A cos(t) + B sin(t); the
    minimizer is closed-form.  When the whole circle is equidistant the
    point at parameter angle 0 of :func:`plane_basis` is returned.
    """
    if c.radius <= 0.0:
        return list(c.center)
    r, center = c.radius, c.center
    e1, e2 = plane_basis(c.axis)
    s0 = signed_plane_distance(center, h)
    amp_a = r * dot(e1, h.normal)
    amp_b = r * dot(e2, h.normal)
    amp = math.hypot(amp_a, amp_b)
    if amp <= 1e-15:
        return [x + r * y for x, y in zip(center, e1)]
    phi = math.atan2(amp_b, amp_a)
    if abs(s0) <= amp:
        theta = phi + math.acos(min(1.0, max(-1.0, -s0 / amp)))
    else:
        theta = phi + (math.pi if s0 > 0 else 0.0)
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    return [x + r * (cos_t * p + sin_t * q) for x, p, q in zip(center, e1, e2)]
