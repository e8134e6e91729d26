"""Euclidean primitives used by every other module.

Points are plain float64 numpy arrays of shape (3,).  Coincidence and
unit-length predicates, here and in every other module, compare against one
fixed absolute threshold, :data:`EPS` = 1e-9, so a verdict depends on its
input alone.  Absolute means the inputs must sit where the float spacing is
well below it: past about |x| = 4.5e6 the spacing of a coordinate reaches
1e-9.  Nothing in this module keeps state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "EPS",
    "Plane",
    "Circle3",
    "GeomError",
    "SeparatedError",
    "CoincidentError",
    "DegenerateError",
    "DegenerateLineError",
    "pt",
    "norm",
    "dist",
    "normalize",
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

_X = np.array([1.0, 0.0, 0.0])
_Y = np.array([0.0, 1.0, 0.0])


def pt(x: float, y: float, z: float) -> np.ndarray:
    return np.array([float(x), float(y), float(z)])


def norm(v: np.ndarray) -> float:
    return math.sqrt(float(np.dot(v, v)))


def dist(a: np.ndarray, b: np.ndarray) -> float:
    d = np.asarray(a) - np.asarray(b)
    return math.sqrt(float(np.dot(d, d)))


def cross3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross product of two 3-vectors without numpy's axis bookkeeping."""
    return np.array([
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    ])


def normalize(v: np.ndarray) -> np.ndarray:
    n = norm(v)
    if n <= 1e-12:
        raise DegenerateError("cannot normalize a (near-)zero vector")
    return np.asarray(v, dtype=float) / n


@dataclass(frozen=True)
class Plane:
    """Affine plane through ``base`` with unit ``normal``."""

    base: np.ndarray
    normal: np.ndarray

    @staticmethod
    def make(base: np.ndarray, normal: np.ndarray) -> "Plane":
        return Plane(np.asarray(base, dtype=float), normalize(normal))


@dataclass(frozen=True)
class Circle3:
    """Circle in 3-space: center, radius and the unit normal of its plane."""

    center: np.ndarray
    radius: float
    axis: np.ndarray

    def __post_init__(self) -> None:
        if self.radius < 0:
            raise ValueError("circle radius must be nonnegative")


def signed_plane_distance(p: np.ndarray, h: Plane) -> float:
    return float(np.dot(np.asarray(p) - h.base, h.normal))


def distance_to_plane(p: np.ndarray, h: Plane) -> float:
    return abs(signed_plane_distance(p, h))


def unit_ball_intersection(u: np.ndarray, w: np.ndarray) -> Circle3:
    """Circle of points at distance exactly 1 from both ``u`` and ``w``.

    Center is the midpoint of [u, w], axis the direction w - u, radius
    sqrt(1 - |u,w|^2 / 4).  At |u,w| = 2 the radius degenerates to 0.
    """
    u = np.asarray(u, dtype=float)
    w = np.asarray(w, dtype=float)
    d = dist(u, w)
    if d > 2.0 + EPS:
        raise SeparatedError(f"unit balls at distance {d} do not intersect")
    if d <= EPS:
        raise CoincidentError("coincident centers: locus is a whole sphere")
    radius = float(np.sqrt(max(0.0, 1.0 - 0.25 * d * d)))
    return Circle3(center=0.5 * (u + w), radius=radius, axis=(w - u) / d)


def _triangle_frame(a: np.ndarray, b: np.ndarray,
                    c: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Edge vectors u = b-a, v = c-a and their cross product, validated."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    u = b - a
    v = c - a
    if norm(u) <= EPS or norm(v) <= EPS or dist(b, c) <= EPS:
        raise DegenerateError("coincident triangle vertices")
    n = cross3(u, v)
    if norm(n) <= EPS:
        raise DegenerateError("collinear triangle vertices")
    return u, v, n


def circumcenter(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    u, v, n = _triangle_frame(a, b, c)
    nn = float(np.dot(n, n))
    offset = (np.dot(v, v) * cross3(n, u) + np.dot(u, u) * cross3(v, n)) / (2.0 * nn)
    return np.asarray(a, dtype=float) + offset


def circumradius(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> float:
    """|ab| * |bc| * |ca| / (4 * area)."""
    u, v, n = _triangle_frame(a, b, c)
    area2 = norm(n)  # twice the triangle area
    return dist(a, b) * dist(b, c) * dist(c, a) / (2.0 * area2)


def apex_at_unit_distance(a: np.ndarray, b: np.ndarray, c: np.ndarray,
                          side: int = +1) -> np.ndarray | None:
    """Point at distance 1 from all three vertices, or None if none exists.

    Exists iff the circumradius R is below 1; the apex sits at height
    sqrt(1 - R^2) over the circumcenter, on the side of the triangle plane
    selected by the sign of ``side`` (relative to (b-a) x (c-a)).
    """
    u, v, n = _triangle_frame(a, b, c)
    center = circumcenter(a, b, c)
    r2 = float(np.dot(center - np.asarray(a, dtype=float),
                      center - np.asarray(a, dtype=float)))
    if r2 >= 1.0:
        return None
    height = float(np.sqrt(1.0 - r2))
    return center + (1 if side >= 0 else -1) * height * normalize(n)


def reflect_across_line(p: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Reflect ``p`` across the line through ``a`` and ``b`` (an isometric involution)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    p = np.asarray(p, dtype=float)
    d = b - a
    dd = float(np.dot(d, d))
    if dd <= EPS * EPS:
        raise DegenerateLineError("line endpoints coincide")
    proj = a + (np.dot(p - a, d) / dd) * d
    return 2.0 * proj - p


def plane_basis(normal: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic orthonormal basis of the plane with unit normal ``normal``.

    e1 is the normalized cross product of the normal with global x, falling
    back to global y when the normal is (nearly) parallel to x.  This fixes
    the parameter angle 0 of a circle around that normal, used by
    tie-breaks, so ledgers are deterministic.
    """
    e1 = cross3(normal, _X)
    if norm(e1) <= 1e-6:
        e1 = cross3(normal, _Y)
    e1 = normalize(e1)
    e2 = cross3(normal, e1)
    return e1, e2


def point_on_circle_nearest_plane(c: Circle3, h: Plane) -> np.ndarray:
    """Point of the circle minimizing unsigned distance to the plane.

    The signed distance along the circle is s0 + A cos(t) + B sin(t); the
    minimizer is closed-form.  When the whole circle is equidistant the
    point at parameter angle 0 of :func:`plane_basis` is returned.
    """
    if c.radius <= 0.0:
        return c.center.copy()
    e1, e2 = plane_basis(c.axis)
    s0 = signed_plane_distance(c.center, h)
    amp_a = c.radius * float(np.dot(e1, h.normal))
    amp_b = c.radius * float(np.dot(e2, h.normal))
    amp = float(np.hypot(amp_a, amp_b))
    if amp <= 1e-15:
        return c.center + c.radius * e1
    phi = float(np.arctan2(amp_b, amp_a))
    if abs(s0) <= amp:
        theta = phi + float(np.arccos(np.clip(-s0 / amp, -1.0, 1.0)))
    else:
        theta = phi + (np.pi if s0 > 0 else 0.0)
    return c.center + c.radius * (np.cos(theta) * e1 + np.sin(theta) * e2)
