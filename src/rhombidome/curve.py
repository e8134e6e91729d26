"""Closed unit-edge space curves and the scalar sequences the reducers use.

A curve may have several closed components.  Internally every component is
unit-subdivided: integer-length input edges exist only at the input boundary
and are split into unit steps by :func:`from_integer_curve`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geom import EPS, Plane, dist, normalize

__all__ = [
    "IntegralCurve",
    "InvalidCurveError",
    "NonIntegerEdgeError",
    "from_integer_curve",
    "farthest_vertex_pair",
    "fit_plane",
    "component_plane",
    "is_planar",
    "random_integral_curve",
]


class InvalidCurveError(ValueError):
    """The vertex data does not describe a closed unit-edge curve."""


class NonIntegerEdgeError(ValueError):
    def __init__(self, component: int, index: int, length: float):
        self.component = component
        self.index = index
        self.length = length
        super().__init__(
            f"edge {index} of component {component} has non-integer length {length!r}")


@dataclass
class IntegralCurve:
    """Closed curve(s) whose consecutive vertices are at distance exactly 1.

    ``components`` holds one (k, 3) float array per closed component, k >= 3,
    with the edge from the last vertex back to the first implied.
    """

    components: list[np.ndarray] = field(default_factory=list)

    def validate(self) -> None:
        for ci, comp in enumerate(self.components):
            comp = np.asarray(comp, dtype=float)
            if comp.ndim != 2 or comp.shape[1] != 3:
                raise InvalidCurveError(f"component {ci} is not a (k, 3) array")
            if len(comp) < 3:
                raise InvalidCurveError(f"component {ci} has fewer than 3 vertices")
            if not np.all(np.isfinite(comp)):
                raise InvalidCurveError(f"component {ci} has non-finite coordinates")
            pts = comp.tolist()
            worst = max(abs(math.dist(p, q) - 1.0) for p, q in zip(pts, pts[1:] + pts[:1]))
            if worst > EPS:
                raise InvalidCurveError(
                    f"component {ci} has a non-unit edge (off by {worst:.3g})")

    @property
    def edge_count(self) -> int:
        """Total number of unit edges over all components."""
        return sum(len(c) for c in self.components)

    def copy(self) -> "IntegralCurve":
        return IntegralCurve([c.copy() for c in self.components])


def from_integer_curve(raw: list) -> IntegralCurve:
    """Normalize a curve with integer-length edges into unit steps.

    Each edge of length L gains L - 1 equally spaced collinear vertices.
    Raises :class:`NonIntegerEdgeError` with the offending component/index
    when a consecutive distance is not a positive integer within
    :data:`~rhombidome.geom.EPS`.
    """
    components: list[np.ndarray] = []
    for ci, comp in enumerate(raw):
        comp = np.asarray(comp, dtype=float)
        if comp.ndim != 2 or comp.shape[1] != 3 or len(comp) < 2:
            raise InvalidCurveError(f"component {ci} is not a list of 3-d points")
        out: list[np.ndarray] = []
        n = len(comp)
        for i in range(n):
            a = comp[i]
            b = comp[(i + 1) % n]
            length = dist(a, b)
            steps = int(round(length))
            if steps < 1 or abs(length - steps) > EPS:
                raise NonIntegerEdgeError(ci, i, length)
            out.append(a.copy())
            for j in range(1, steps):
                out.append(a + (j / steps) * (b - a))
        components.append(np.array(out))
    curve = IntegralCurve(components)
    curve.validate()
    return curve


def farthest_vertex_pair(component: np.ndarray) -> tuple[int, int]:
    """Indices of a maximum-distance vertex pair, first lexicographic on ties."""
    comp = np.asarray(component, dtype=float)
    n = len(comp)
    best = (0, 1)
    best_d = -1.0
    for i in range(n):
        d = np.linalg.norm(comp[i + 1:] - comp[i], axis=1)
        if len(d) == 0:
            continue
        j = int(np.argmax(d))
        if float(d[j]) > best_d + 1e-15:
            best_d = float(d[j])
            best = (i, i + 1 + j)
    return best


def fit_plane(points: np.ndarray) -> Plane:
    """Best-fit plane through a point cloud via second-moment analysis."""
    points = np.asarray(points, dtype=float)
    centroid = points.mean(axis=0)
    centered = points - centroid
    moments = centered.T @ centered
    eigvals, eigvecs = np.linalg.eigh(moments)
    return Plane(base=centroid, normal=normalize(eigvecs[:, 0]))


def component_plane(component: np.ndarray) -> Plane | None:
    """Best-fit plane of one component if all vertices lie on it, else None."""
    plane = fit_plane(component)
    residual = np.abs((np.asarray(component) - plane.base) @ plane.normal)
    if float(np.max(residual)) <= EPS:
        return plane
    return None


def is_planar(curve: IntegralCurve) -> Plane | None:
    """Best-fit plane of the whole curve if every vertex lies on it, else None."""
    points = np.vstack(curve.components)
    return component_plane(points)


def random_integral_curve(n: int, rng: np.random.Generator) -> IntegralCurve:
    """Random closed curve with ``n`` unit edges (single component).

    Samples n - 2 i.i.d. uniform unit steps; when the partial-sum endpoint
    lands strictly between distance 0 and 2 from the origin the walk is
    closed with two unit edges through a random point of the closing circle,
    otherwise the walk is resampled.
    """
    if n < 3:
        raise ValueError("need at least 3 edges")
    while True:
        steps = rng.normal(size=(n - 2, 3))
        steps /= np.linalg.norm(steps, axis=1)[:, None]
        endpoint = steps.sum(axis=0)
        d = float(np.linalg.norm(endpoint))
        if not (1e-9 < d < 2.0 - 1e-9):
            continue
        # closing circle: points at distance 1 from both the endpoint and 0
        mid = 0.5 * endpoint
        axis = endpoint / d
        radius = float(np.sqrt(1.0 - 0.25 * d * d))
        ref = np.cross(axis, np.array([1.0, 0.0, 0.0]))
        if np.linalg.norm(ref) <= 1e-6:
            ref = np.cross(axis, np.array([0.0, 1.0, 0.0]))
        e1 = ref / np.linalg.norm(ref)
        e2 = np.cross(axis, e1)
        theta = rng.uniform(0.0, 2.0 * np.pi)
        bridge = mid + radius * (np.cos(theta) * e1 + np.sin(theta) * e2)
        vertices = np.zeros((n, 3))
        vertices[1:n - 1] = np.cumsum(steps, axis=0)
        vertices[n - 1] = bridge
        curve = IntegralCurve([vertices])
        try:
            curve.validate()
        except InvalidCurveError:
            continue
        return curve
