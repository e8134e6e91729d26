import math

import numpy as np
import pytest

from rhombidome import GraphSurface, IntegralCurve
from rhombidome.geom import (
    EPS,
    Circle3,
    CoincidentError,
    DegenerateError,
    DegenerateLineError,
    Plane,
    SeparatedError,
    dist,
)
from rhombidome.surface import CobordismLedger, PivotMove, Replayer, signed_segment_counts


def regular_polygon_curve(k: int) -> IntegralCurve:
    """Regular unit-side k-gon in the z = 0 plane, centered at the origin."""
    radius = 1.0 / (2.0 * np.sin(np.pi / k))
    angles = 2.0 * np.pi * np.arange(k) / k
    vertices = np.column_stack([radius * np.cos(angles),
                                radius * np.sin(angles),
                                np.zeros(k)])
    curve = IntegralCurve([vertices])
    curve.validate()
    return curve


def crown_curve(k: int = 12, height: float = 0.3) -> IntegralCurve:
    """Unit-edge crown: a regular k-gon (k even) whose vertices sit at heights
    +height and -height in turn, at the radius that makes every edge unit.

    Every span |v_i - v_i+3| exceeds 2 for height below about 0.39, so no
    pentagon peels locally and :func:`~rhombidome.cobordism.reduce_to_rhombi`
    takes the whole fallback: planarize, pack and peel the packed remainder
    at its tightest windows (at the defaults 6 planarize, 5 pack and 5 fix
    pivots, k 32).
    """
    radius = math.sqrt(1.0 - 4.0 * height * height) / (2.0 * np.sin(np.pi / k))
    angles = 2.0 * np.pi * np.arange(k) / k
    vertices = np.column_stack([radius * np.cos(angles), radius * np.sin(angles),
                                height * (-1.0) ** np.arange(k)])
    curve = IntegralCurve([vertices])
    curve.validate()
    return curve


def crown_union(seed: int) -> IntegralCurve:
    """The default crown and, 10 away along x, the random n = 9 curve of
    ``seed``: its ledger holds every kind of move but the closing ones, with
    splits at vertex 0 and at other positions."""
    from rhombidome.curve import random_integral_curve

    loop = random_integral_curve(9, np.random.default_rng(seed)).components[0]
    return IntegralCurve([crown_curve().components[0], loop + np.array([10.0, 0, 0])])


def near_axis_seven_gon(delta: float, alpha: float = 0.05) -> np.ndarray:
    """Vertices of a unit-edge 7-gon whose tightest window [v0 v1 v2 v3] has
    the midpoint of v1 and v2 at distance ``delta`` from the line v0 v3, far
    from the middle of v0 and v3.

    v0 = 0, v1 = (cos alpha, sin alpha, 0), v2 = (S + sqrt(1 - b^2), b, 0)
    with b = -sin alpha + 2 delta, and v3 = (S, 0, 0), with S solved so that
    |v1 v2| = 1; the curve returns through (S, 0, 1), the apex of a unit
    triangle over it, and (0, 0, 1).
    """
    b = -math.sin(alpha) + 2.0 * delta
    rise = b - math.sin(alpha)
    s = math.cos(alpha) + math.sqrt(1.0 - rise * rise) - math.sqrt(1.0 - b * b)
    return np.array([[0.0, 0.0, 0.0], [math.cos(alpha), math.sin(alpha), 0.0],
                     [s + math.sqrt(1.0 - b * b), b, 0.0], [s, 0.0, 0.0], [s, 0.0, 1.0],
                     [s / 2.0, 0.0, 1.0 + math.sqrt(1.0 - s * s / 4.0)], [0.0, 0.0, 1.0]])


def folded_rhombus_curve(angle: float = np.pi / 2) -> IntegralCurve:
    """Unit rhombus folded by ``angle`` along the diagonal (a, c)."""
    s3 = np.sqrt(3.0) / 2.0
    a = np.array([0.0, 0.0, 0.0])
    c = np.array([1.0, 0.0, 0.0])
    b = np.array([0.5, s3, 0.0])
    d = np.array([0.5, -s3 * np.cos(angle), s3 * np.sin(angle)])
    curve = IntegralCurve([np.vstack([a, b, c, d])])
    curve.validate()
    return curve


def pack_as_pivots(ledger: CobordismLedger) -> CobordismLedger:
    """``ledger`` with each pack move written out as the pivots of stage
    ``pack`` that realize it, as ledger version 3 recorded them.

    The reference for the pack replay: the version 3 producer's bubble sort,
    which pivots vertex j + 1 to ``v[j] + (v[j+2] - v[j+1])`` for each
    adjacent transposition and records nothing when that point is within
    EPS of the old one.
    """
    state = Replayer(ledger.initial)
    moves = []
    for move in ledger.moves:
        if move.kind != "pack":
            state.apply(move)
            moves.append(move)
            continue
        n = len(state.component(move.component))
        pos = np.empty(n, dtype=int)
        pos[move.order] = np.arange(n)
        arrangement = list(range(n))
        swapped = True
        while swapped:
            swapped = False
            for j in range(n - 1):
                if pos[arrangement[j]] > pos[arrangement[j + 1]]:
                    v = np.array(state.rows(move.component))
                    target = v[j] + (v[(j + 2) % n] - v[j + 1])
                    if dist(v[j + 1], target) > EPS:
                        pivot = PivotMove(move.component, j + 1, target, "pack")
                        state.apply(pivot)
                        moves.append(pivot)
                    arrangement[j], arrangement[j + 1] = arrangement[j + 1], arrangement[j]
                    swapped = True
    return CobordismLedger(ledger.initial.copy(), moves, ledger.final_curve.copy(),
                           dict(ledger.stats))


def segment_counts(cycles_plus: list, cycles_minus: list) -> dict:
    """:func:`~rhombidome.surface.signed_segment_counts` of coordinate cycles,
    each entry a (k, 3) cycle or an (m, k, 3) stack of cycles: rows that are
    exactly equal name one vertex id."""
    entries = [np.asarray(cycle, dtype=float) for cycle in (*cycles_plus, *cycles_minus)]
    rows = [v.reshape(-1, 3) for v in entries]
    _, inverse = np.unique(np.concatenate(rows) if rows else np.empty((0, 3)), axis=0,
                           return_inverse=True)
    ids = np.split(inverse.ravel(), np.cumsum([len(r) for r in rows])[:-1])
    ids = [cycle.reshape(v.shape[:-1]) for cycle, v in zip(ids, entries)]
    return signed_segment_counts(ids[:len(cycles_plus)], ids[len(cycles_plus):])


def replayed_cells(state: Replayer, kind: str) -> list:
    """The cells of ``kind`` (``triangles``, ``rhombus_cells`` or ``rhombi``)
    that ``state`` derived, each as its list of vertex rows."""
    return [[state.points[i] for i in cell] for cell in getattr(state, kind)]


def _cycle_basis(s: GraphSurface) -> list[np.ndarray]:
    """Fundamental cycles of a spanning tree of the 1-skeleton.

    Signed coefficient vectors over edge ids; together they span the whole
    cycle space of the skeleton (an over-complete generator set beside the
    triangle sums).
    """
    n_edges = len(s.edges)
    adjacency: dict[int, list[tuple[int, int, int]]] = {v: [] for v in range(s.vertex_count)}
    for eid, (tail, head) in enumerate(s.edges):
        adjacency[tail].append((head, eid, +1))
        adjacency[head].append((tail, eid, -1))
    parent: dict[int, tuple[int, int, int] | None] = {0: None}
    stack = [0]
    tree_edges = set()
    while stack:
        v = stack.pop()
        for w, eid, direction in adjacency[v]:
            if w not in parent:
                parent[w] = (v, eid, direction)
                tree_edges.add(eid)
                stack.append(w)
    assert len(parent) == s.vertex_count, "surface skeleton is not connected"

    def root_chain(v: int) -> np.ndarray:
        """Signed edge chain of the tree path root -> v."""
        coeff = np.zeros(n_edges)
        while parent[v] is not None:
            up, eid, direction = parent[v]
            coeff[eid] += direction  # direction +1 iff the edge points up -> v
            v = up
        return coeff

    cycles = []
    for eid, (tail, head) in enumerate(s.edges):
        if eid in tree_edges:
            continue
        # closed walk: tail -> head along the edge, back through the tree
        coeff = np.zeros(n_edges)
        coeff[eid] = 1.0
        coeff -= root_chain(head)
        coeff += root_chain(tail)
        cycles.append(coeff)
    return cycles


def edge_vector_constraint_rows(s: GraphSurface) -> np.ndarray:
    """Triangle-sum and cycle-sum rows (3m, 3 n_edges) on edge vectors.

    The edge-vector scheme's linear constraints, per coordinate: an edge
    field they annihilate is a difference of vertex positions.  Kept as the
    reference the vertex-position scheme of ``rhombidome.moduli`` is pinned to.
    """
    n_edges = len(s.edges)
    blocks = []
    for refs in s.triangles:
        block = np.zeros((3, 3 * n_edges))
        for ref in refs:
            for c in range(3):
                block[c, 3 * (abs(ref) - 1) + c] += 1 if ref > 0 else -1
        blocks.append(block)
    for coeff in _cycle_basis(s):
        block = np.zeros((3, 3 * n_edges))
        for eid, value in enumerate(coeff):
            for c in range(3):
                block[c, 3 * eid + c] += value
        blocks.append(block)
    return np.vstack(blocks) if blocks else np.zeros((0, 3 * n_edges))


def loop_farthest_vertex_pair(component: np.ndarray) -> tuple[int, int]:
    """One ``np.linalg.norm`` per vertex: the reference of the blocked
    ``rhombidome.curve.farthest_vertex_pair`` and of its tie rule."""
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


# ---------------------------------------------------------------------------
# numpy references of the geom kernels
#
# The kernels of ``rhombidome.geom`` compute on Python floats; these are the
# numpy bodies they replaced, which tests/test_geom.py pins them to.


def _numpy_norm(v: np.ndarray) -> float:
    return math.sqrt(float(np.dot(v, v)))


def numpy_dist(a: np.ndarray, b: np.ndarray) -> float:
    d = np.asarray(a) - np.asarray(b)
    return math.sqrt(float(np.dot(d, d)))


def numpy_cross3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.cross(a, b)


def numpy_normalize(v: np.ndarray) -> np.ndarray:
    n = _numpy_norm(v)
    if n <= 1e-12:
        raise DegenerateError("cannot normalize a (near-)zero vector")
    return np.asarray(v, dtype=float) / n


def numpy_signed_plane_distance(p: np.ndarray, h: Plane) -> float:
    return float(np.dot(np.asarray(p) - np.asarray(h.base), np.asarray(h.normal)))


def numpy_unit_ball_intersection(u: np.ndarray, w: np.ndarray) -> Circle3:
    u = np.asarray(u, dtype=float)
    w = np.asarray(w, dtype=float)
    d = numpy_dist(u, w)
    if d > 2.0 + EPS:
        raise SeparatedError(f"unit balls at distance {d} do not intersect")
    if d <= EPS:
        raise CoincidentError("coincident centers: locus is a whole sphere")
    radius = float(np.sqrt(max(0.0, 1.0 - 0.25 * d * d)))
    return Circle3(center=0.5 * (u + w), radius=radius, axis=(w - u) / d)


def _numpy_triangle_frame(a, b, c):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    u = b - a
    v = c - a
    if _numpy_norm(u) <= EPS or _numpy_norm(v) <= EPS or numpy_dist(b, c) <= EPS:
        raise DegenerateError("coincident triangle vertices")
    n = np.cross(u, v)
    if _numpy_norm(n) <= EPS:
        raise DegenerateError("collinear triangle vertices")
    return u, v, n


def numpy_circumcenter(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    u, v, n = _numpy_triangle_frame(a, b, c)
    nn = float(np.dot(n, n))
    offset = (np.dot(v, v) * np.cross(n, u) + np.dot(u, u) * np.cross(v, n)) / (2.0 * nn)
    return np.asarray(a, dtype=float) + offset


def numpy_circumradius(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> float:
    u, v, n = _numpy_triangle_frame(a, b, c)
    return numpy_dist(a, b) * numpy_dist(b, c) * numpy_dist(c, a) / (2.0 * _numpy_norm(n))


def numpy_apex_at_unit_distance(a: np.ndarray, b: np.ndarray, c: np.ndarray,
                                side: int = +1) -> np.ndarray | None:
    u, v, n = _numpy_triangle_frame(a, b, c)
    center = numpy_circumcenter(a, b, c)
    r2 = float(np.dot(center - np.asarray(a, dtype=float),
                      center - np.asarray(a, dtype=float)))
    if r2 >= 1.0:
        return None
    height = float(np.sqrt(1.0 - r2))
    return center + (1 if side >= 0 else -1) * height * numpy_normalize(n)


def numpy_reflect_across_line(p: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    p = np.asarray(p, dtype=float)
    d = b - a
    dd = float(np.dot(d, d))
    if dd <= EPS * EPS:
        raise DegenerateLineError("line endpoints coincide")
    proj = a + (np.dot(p - a, d) / dd) * d
    return 2.0 * proj - p


def numpy_plane_basis(normal: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    e1 = np.cross(normal, [1.0, 0.0, 0.0])
    if _numpy_norm(e1) <= 1e-6:
        e1 = np.cross(normal, [0.0, 1.0, 0.0])
    e1 = numpy_normalize(e1)
    e2 = np.cross(normal, e1)
    return e1, e2


def numpy_point_on_circle_nearest_plane(c: Circle3, h: Plane) -> np.ndarray:
    center, base, normal = np.array(c.center), np.asarray(h.base), np.asarray(h.normal)
    if c.radius <= 0.0:
        return center
    e1, e2 = numpy_plane_basis(np.asarray(c.axis))
    s0 = float(np.dot(center - base, normal))
    amp_a = c.radius * float(np.dot(e1, normal))
    amp_b = c.radius * float(np.dot(e2, normal))
    amp = float(np.hypot(amp_a, amp_b))
    if amp <= 1e-15:
        return center + c.radius * e1
    phi = float(np.arctan2(amp_b, amp_a))
    if abs(s0) <= amp:
        theta = phi + float(np.arccos(np.clip(-s0 / amp, -1.0, 1.0)))
    else:
        theta = phi + (np.pi if s0 > 0 else 0.0)
    return center + c.radius * (np.cos(theta) * e1 + np.sin(theta) * e2)


@pytest.fixture
def regular_pentagon() -> IntegralCurve:
    return regular_polygon_curve(5)


@pytest.fixture
def regular_hexagon() -> IntegralCurve:
    return regular_polygon_curve(6)


@pytest.fixture
def unit_square() -> IntegralCurve:
    vertices = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                         [1.0, 1.0, 0.0], [0.0, 1.0, 0.0]])
    return IntegralCurve([vertices])


@pytest.fixture
def unit_triangle() -> IntegralCurve:
    vertices = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                         [0.5, np.sqrt(3.0) / 2.0, 0.0]])
    return IntegralCurve([vertices])
