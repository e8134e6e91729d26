"""Closed unit-edge space curves and the scalar sequences the reducers use.

A curve may have several closed components, each a list of rows (lists of
three Python floats, into which :class:`IntegralCurve` converts arrays) and
unit-subdivided: integer-length input edges exist only at the input boundary
and are split into unit steps by :func:`from_integer_curve`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .geom import EPS, Plane, distance_to_plane, dot, normalize, plane_basis

__all__ = [
    "IntegralCurve",
    "InvalidCurveError",
    "NonIntegerEdgeError",
    "from_integer_curve",
    "farthest_vertex_pair",
    "plane_through",
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


def _is_rows(comp) -> bool:
    """True if ``comp`` is a list of rows, lists of three Python floats."""
    return type(comp) is list and all(
        type(p) is list and len(p) == 3 and type(p[0]) is type(p[1]) is type(p[2]) is float
        for p in comp)


def _rows(comp):
    """``comp`` as nested lists of floats if numpy reads it as a float array,
    else as given; :meth:`IntegralCurve.validate` refuses any but rows."""
    try:
        return np.asarray(comp, dtype=float).tolist()
    except (TypeError, ValueError, OverflowError):
        return comp


@dataclass
class IntegralCurve:
    """Closed curve(s) whose consecutive vertices are at distance exactly 1.

    ``components`` holds one list of k >= 3 rows, lists of three Python
    floats, per closed component, with the edge from the last vertex back to
    the first implied; anything else numpy reads as (k, 3) becomes rows.
    """

    components: list[list[list[float]]] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.components = [c if _is_rows(c) else _rows(c) for c in self.components]

    def validate(self) -> None:
        for ci, comp in enumerate(self.components):
            if not _is_rows(comp):
                raise InvalidCurveError(f"component {ci} is not a (k, 3) array")
            if len(comp) < 3:
                raise InvalidCurveError(f"component {ci} has fewer than 3 vertices")
            offs = [abs(math.dist(p, q) - 1.0) for p, q in zip(comp, comp[1:] + comp[:1])]
            if not all(map(EPS.__ge__, offs)):  # a non-finite coordinate gives NaN or inf
                if not all(map(math.isfinite, chain.from_iterable(comp))):
                    raise InvalidCurveError(f"component {ci} has non-finite coordinates")
                raise InvalidCurveError(
                    f"component {ci} has a non-unit edge (off by {max(offs):.3g})")

    @property
    def edge_count(self) -> int:
        """Total number of unit edges over all components."""
        return sum(len(c) for c in self.components)

    def copy(self) -> "IntegralCurve":
        return IntegralCurve([list(map(list, c)) for c in self.components])


# Most unit edges a curve may have after subdivision: 160 MB of float rows,
# 500 times the n = 2,000 of the largest measured reduction, whose rhombus
# budget grows as n^2.
MAX_UNIT_EDGES = 1_000_000


def from_integer_curve(raw: list) -> IntegralCurve:
    """Normalize a curve with integer-length edges into unit steps.

    Each edge of length L gains L - 1 equally spaced collinear vertices,
    ``a + (j / L) * (b - a)``; its first vertex is ``a`` itself.  Raises
    :class:`NonIntegerEdgeError` with the offending component/index when a
    consecutive distance is not a positive integer within
    :data:`~rhombidome.geom.EPS`; an infinite distance is not.  Raises
    :class:`InvalidCurveError`, before building any vertex, when the unit
    edges would number more than :data:`MAX_UNIT_EDGES`.
    """
    parsed = []
    for ci, comp in enumerate(IntegralCurve(raw).components):
        if not _is_rows(comp) or len(comp) < 2:
            raise InvalidCurveError(f"component {ci} is not a list of 3-d points")
        steps = []
        for i, (a, b) in enumerate(zip(comp, comp[1:] + comp[:1])):
            length = math.dist(a, b)
            count = int(round(length)) if math.isfinite(length) else 0
            if count < 1 or abs(length - count) > EPS:
                raise NonIntegerEdgeError(ci, i, length)
            steps.append(count)
        parsed.append((comp, steps))
    total = sum(sum(steps) for _, steps in parsed)
    if total > MAX_UNIT_EDGES:
        raise InvalidCurveError(
            f"curve has {total} unit edges, more than the limit of {MAX_UNIT_EDGES}")
    components = []
    for comp, steps in parsed:
        rows = []
        for a, b, count in zip(comp, comp[1:] + comp[:1], steps):
            rows.append(a)  # a + 0.0 * (b - a) would turn a -0.0 into 0.0
            for j in range(1, count):
                rows.append([x + (j / count) * (y - x) for x, y in zip(a, b)])
        components.append(rows)
    curve = IntegralCurve(components)
    curve.validate()
    return curve


# Rows per block of ``farthest_vertex_pair``: a block holds 256 x n distances.
_PAIR_BLOCK = 256


def farthest_vertex_pair(component: list) -> tuple[int, int]:
    """Indices of a maximum-distance vertex pair, first lexicographic on ties.

    Rows i of a block are measured against every later vertex j > i at once.
    Each distance is sqrt((dx^2 + dy^2) + dz^2), summed in the order of
    ``np.linalg.norm(comp[j] - comp[i])``, so the values, and with them the
    ties, are those of one norm per vertex.  Each row keeps its first maximum;
    the running best changes only on a gain of more than 1e-15.
    """
    comp = np.asarray(component, dtype=float)
    n = len(comp)
    best = (0, 1)
    best_d = -1.0
    x, y, z = comp.T
    for start in range(0, n - 1, _PAIR_BLOCK):
        stop = min(start + _PAIR_BLOCK, n - 1)
        # entry [r, c]: vertex i = start + r against vertex j = start + 1 + c
        d = x[None, start + 1:] - x[start:stop, None]
        d *= d
        for coord in (y, z):
            step = coord[None, start + 1:] - coord[start:stop, None]
            d += step * step
        np.sqrt(d, out=d)
        rows, width = len(d), min(len(d), d.shape[1])
        d[:, :width][np.tri(rows, width, -1, dtype=bool)] = -np.inf  # j <= i
        cols = np.argmax(d, axis=1)
        for r, (c, dij) in enumerate(zip(cols.tolist(),
                                         d[np.arange(rows), cols].tolist())):
            if dij > best_d + 1e-15:
                best_d = dij
                best = (start + r, start + 1 + c)
    return best


def plane_through(rows: list, iv: int, iw: int) -> Plane:
    """The plane through rows ``iv`` and ``iw``, based at row ``iv``, with
    the least summed squared heights of ``rows``.

    Its normal is cos t * e1 + sin t * e2, with e1, e2 =
    ``plane_basis(normalize(w - v))``; the summed squared height
    a cos^2 t + 2b cos t sin t + c sin^2 t, from the second moments
    [[a, b], [b, c]] of the rows about v in that basis, is least at
    t = atan2(-2b, c - a) / 2.  No eigensolver, and Python sums: the bits
    depend on the rows alone.  Collinear rows (a = b = c = 0) give e1.
    """
    v = rows[iv]
    e1, e2 = plane_basis(normalize([x - y for x, y in zip(rows[iw], v)]))
    a = b = c = 0.0
    for p in rows:
        r = [x - y for x, y in zip(p, v)]
        x, y = dot(r, e1), dot(r, e2)
        a, b, c = a + x * x, b + x * y, c + y * y
    t = 0.5 * math.atan2(-2.0 * b, c - a)
    cos_t, sin_t = math.cos(t), math.sin(t)
    return Plane(base=list(v), normal=[cos_t * x + sin_t * y for x, y in zip(e1, e2)])


def component_plane(component: list) -> Plane | None:
    """The plane of :func:`plane_through` a farthest vertex pair of one
    component's rows, if every vertex lies on it within ``EPS``, else None."""
    plane = plane_through(component, *farthest_vertex_pair(component))
    if max(distance_to_plane(p, plane) for p in component) <= EPS:
        return plane
    return None


def is_planar(curve: IntegralCurve) -> Plane | None:
    """:func:`component_plane` of all the curve's vertices together."""
    return component_plane(list(chain.from_iterable(curve.components)))


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
