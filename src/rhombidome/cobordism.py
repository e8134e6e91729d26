"""Rhombus pivots and the constructive reduction of a curve to unit rhombi.

The pipeline per component is: flatten into a plane by pivoting the highest
vertex onto the point of its pivot circle nearest the plane, gather all
vertices within distance 2 of the base vertex by realizing a bounded-prefix
reordering of the edge vectors with adjacent transpositions, then peel
planar pentagons off the front until nothing is left.  Each inversion of the
reordering costs one pack pivot, so the order is a first-fit pass that
prefers low indices; the Grinberg--Sevastyanov elimination, which proves the
prefix bound 2 in the plane, is its fallback.  Every step is
recorded as a replayable move so an independent checker can rebuild each
intermediate curve bit for bit and verify the boundary bookkeeping.

Move semantics (state = components keyed by stable integer ids).  A move
records only the decision taken; everything else follows from the state it
is replayed on:

* ``PivotMove``      -- move one vertex to ``new_point``, which must lie at
                        unit distance from both neighbours.  The old point
                        and the emitted cell ``[prev old next new]`` are read
                        off the state; when the neighbours coincide the pivot
                        is degenerate and emits no cell.
* ``SplitMove``      -- peel ``[v0 v1 v2 v3 z]`` off a component as component
                        ``new_component``, leaving ``[v0 z v3 v4 ...]``.
* ``PentagonMove``   -- consume a 5-cycle into two recorded boundary rhombi
                        and one recorded unit triangle.
* ``CloseRhombusMove`` / ``CloseTriangleMove`` -- consume 4- and 3-cycles.

Edges shared by two cells, or by a split's two pieces, cancel in the chain
identity by orientation alone, so no seam is recorded.  ``MOVE_TABLE`` is
the one place that maps a move's JSON ``type`` to its class, its fields and
its replay step.

Rhombi retained as boundary output are stored with reversed orientation so
that the assembled 2-chain has boundary equal to (initial curve) + (rhombi).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, ClassVar, NamedTuple

import numpy as np

from .curve import (
    IntegralCurve,
    component_plane,
    farthest_vertex_pair,
    fit_plane,
)
from .geom import (
    DEFAULT_TOL,
    DegenerateError,
    Plane,
    Tolerance,
    apex_at_unit_distance,
    circle_basis,
    dist,
    normalize,
    point_on_circle_nearest_plane,
    reflect_across_line,
    unit_ball_intersection,
)

__all__ = [
    "Rhombus",
    "TriangleFace",
    "PivotMove",
    "SplitMove",
    "PentagonMove",
    "CloseRhombusMove",
    "CloseTriangleMove",
    "Move",
    "MoveSpec",
    "MOVE_TABLE",
    "CobordismLedger",
    "PentagonSplit",
    "Replayer",
    "NotOnPivotCircleError",
    "PlanarizeBudgetError",
    "NotClosedError",
    "SearchFailedError",
    "FixBudgetExceededError",
    "ComponentTooShortError",
    "ReplayMismatchError",
    "apply_pivot",
    "planarize",
    "steinitz_order",
    "pack",
    "pentagon_split",
    "reduce_to_rhombi",
    "component_budget",
]

STEINITZ_BOUND = 2.0
FIX_PIVOT_BUDGET = 3
_CIRCLE_SAMPLES = 360


class NotOnPivotCircleError(ValueError):
    """Pivot target is not at unit distance from both neighbours."""


class PlanarizeBudgetError(RuntimeError):
    """Flattening exceeded its move budget; indicates a numerical-policy bug."""


class NotClosedError(ValueError):
    """Edge vectors do not sum to zero."""


class SearchFailedError(RuntimeError):
    """A packing postcondition failed: a packed vertex is farther than 2 from vertex 0."""


class FixBudgetExceededError(RuntimeError):
    """Pentagon corrective pivots could not reach circumradius < 1."""


class ComponentTooShortError(ValueError):
    """A component with fewer than 3 edges cannot be reduced."""


class ReplayMismatchError(RuntimeError):
    """A recorded move does not match the replayed curve state."""


# ---------------------------------------------------------------------------
# cells and moves


@dataclass
class Rhombus:
    """Closed 4-cycle with four unit sides (possibly non-planar)."""

    vertices: np.ndarray  # (4, 3)

    def validate(self, tol: Tolerance = DEFAULT_TOL) -> None:
        v = np.asarray(self.vertices, dtype=float)
        if v.shape != (4, 3):
            raise ValueError("rhombus needs exactly 4 vertices")
        for i in range(4):
            side = dist(v[i], v[(i + 1) % 4])
            if not abs(side - 1.0) <= tol.geom_eps:  # NaN fails
                raise ValueError(f"rhombus side {i} has length {side}")

    def reversed(self) -> "Rhombus":
        v = np.asarray(self.vertices)
        return Rhombus(np.vstack([v[0], v[3], v[2], v[1]]))


@dataclass
class TriangleFace:
    """Unit equilateral triangle cell."""

    vertices: np.ndarray  # (3, 3)

    def validate(self, tol: Tolerance = DEFAULT_TOL) -> None:
        v = np.asarray(self.vertices, dtype=float)
        if v.shape != (3, 3):
            raise ValueError("triangle needs exactly 3 vertices")
        for i in range(3):
            side = dist(v[i], v[(i + 1) % 3])
            if not abs(side - 1.0) <= tol.geom_eps:
                raise ValueError(f"triangle side {i} has length {side}")


@dataclass
class PivotMove:
    kind: ClassVar[str] = "pivot"
    component: int
    vertex: int
    new_point: np.ndarray
    stage: str = "pivot"


@dataclass
class SplitMove:
    kind: ClassVar[str] = "split"
    component: int
    new_component: int
    z: np.ndarray


@dataclass
class PentagonMove:
    kind: ClassVar[str] = "pentagon"
    component: int
    rhombus_indices: tuple[int, int]
    triangle_index: int


@dataclass
class CloseRhombusMove:
    kind: ClassVar[str] = "close_rhombus"
    component: int
    rhombus_index: int


@dataclass
class CloseTriangleMove:
    kind: ClassVar[str] = "close_triangle"
    component: int
    triangle_index: int


Move = PivotMove | SplitMove | PentagonMove | CloseRhombusMove | CloseTriangleMove


@dataclass
class CobordismLedger:
    """Replayable record of one reduction run.

    ``final_rhombi`` are the boundary rhombi (reversed orientation, see module
    docstring); the cells of pivots are derived on replay.  ``stats``
    carries the edge count n, the total number of rhombi used k, the upper
    bound ``budget`` and per-stage counters.
    """

    initial: IntegralCurve
    moves: list[Move] = field(default_factory=list)
    triangles: list[TriangleFace] = field(default_factory=list)
    final_rhombi: list[Rhombus] = field(default_factory=list)
    final_curve: IntegralCurve = field(default_factory=IntegralCurve)
    stats: dict = field(default_factory=dict)


def component_budget(n: int) -> int:
    """Upper bound on rhombi used to reduce one component with n edges."""
    if n >= 5:
        return n * n + 2 * n - 12
    if n == 4:
        return 1
    return 0


# ---------------------------------------------------------------------------
# replay


class Replayer:
    """Applies recorded moves to evolving component state, bit for bit.

    Besides the component state it keeps ``consumed``: for each move that
    consumes a cycle, in move order, the replayed cycle and the indices of the
    recorded triangles and boundary rhombi the move names for it.
    """

    def __init__(self, initial: IntegralCurve, tol: Tolerance = DEFAULT_TOL):
        self.tol = tol
        self.components: dict[int, np.ndarray] = {
            i: np.asarray(c, dtype=float).copy() for i, c in enumerate(initial.components)
        }
        self.consumed: list[tuple[np.ndarray, tuple[int, ...], tuple[int, ...]]] = []

    def component(self, cid: int) -> np.ndarray:
        try:
            return self.components[cid]
        except KeyError:
            raise ReplayMismatchError(f"component {cid} does not exist") from None

    def apply(self, move: Move) -> Rhombus | None:
        """Apply one move; a non-degenerate pivot returns its derived cell."""
        spec = MOVE_TABLE.get(getattr(move, "kind", None))
        if spec is None:
            raise ReplayMismatchError(f"unknown move type {type(move)!r}")
        return spec.apply(self, move)

    def _apply_pivot(self, move: PivotMove) -> Rhombus | None:
        v = self.component(move.component)
        n = len(v)
        if not 0 <= move.vertex < n:
            raise ReplayMismatchError("pivot vertex out of range")
        prev = v[(move.vertex - 1) % n]
        nxt = v[(move.vertex + 1) % n]
        new = np.asarray(move.new_point, dtype=float)
        for nb in (prev, nxt):
            side = dist(nb, new)
            if not abs(side - 1.0) <= self.tol.geom_eps:  # NaN fails
                raise NotOnPivotCircleError(
                    f"pivot target at distance {side} from a neighbour")
        cell = None
        if dist(prev, nxt) > self.tol.geom_eps:
            cell = Rhombus(np.array([prev, v[move.vertex], nxt, new]))
        v[move.vertex] = new
        return cell

    def _apply_split(self, move: SplitMove) -> None:
        v = self.component(move.component)
        if len(v) < 6:
            raise ReplayMismatchError("split needs a component with > 5 edges")
        if move.new_component in self.components:
            raise ReplayMismatchError("split target id already in use")
        z = np.asarray(move.z, dtype=float)
        pentagon = np.vstack([v[0:4], z[None, :]])
        remainder = np.vstack([v[0:1], z[None, :], v[3:]])
        self.components[move.new_component] = pentagon
        self.components[move.component] = remainder

    def _apply_pentagon(self, move: PentagonMove) -> None:
        self._consume(move.component, 5, (move.triangle_index,),
                      tuple(move.rhombus_indices))

    def _apply_close_rhombus(self, move: CloseRhombusMove) -> None:
        self._consume(move.component, 4, (), (move.rhombus_index,))

    def _apply_close_triangle(self, move: CloseTriangleMove) -> None:
        self._consume(move.component, 3, (move.triangle_index,), ())

    def _consume(self, cid: int, expected_len: int, triangles: tuple[int, ...],
                 rhombi: tuple[int, ...]) -> None:
        v = self.component(cid)
        if len(v) != expected_len:
            raise ReplayMismatchError(
                f"component {cid} has {len(v)} vertices, expected {expected_len}")
        self.consumed.append((v, triangles, rhombi))
        del self.components[cid]

    def final_curve(self) -> IntegralCurve:
        return IntegralCurve([self.components[k].copy() for k in sorted(self.components)])


class MoveSpec(NamedTuple):
    """One row of the move table.

    ``fields`` lists (JSON key, attribute, codec) with codec one of ``int``,
    ``int_pair``, ``point`` or ``str``; ``files`` encodes and decodes by it.
    """

    cls: type
    apply: Callable[[Replayer, Move], Rhombus | None]
    fields: tuple[tuple[str, str, str], ...]


_COMPONENT = ("component", "component", "int")

# JSON ``type`` -> move class, replay step and fields.
MOVE_TABLE: dict[str, MoveSpec] = {
    "pivot": MoveSpec(PivotMove, Replayer._apply_pivot, (
        _COMPONENT, ("vertex", "vertex", "int"), ("new", "new_point", "point"),
        ("stage", "stage", "str"))),
    "split": MoveSpec(SplitMove, Replayer._apply_split, (
        _COMPONENT, ("new_component", "new_component", "int"), ("z", "z", "point"))),
    "pentagon": MoveSpec(PentagonMove, Replayer._apply_pentagon, (
        _COMPONENT, ("rhombi", "rhombus_indices", "int_pair"),
        ("triangle", "triangle_index", "int"))),
    "close_rhombus": MoveSpec(CloseRhombusMove, Replayer._apply_close_rhombus, (
        _COMPONENT, ("rhombus", "rhombus_index", "int"))),
    "close_triangle": MoveSpec(CloseTriangleMove, Replayer._apply_close_triangle, (
        _COMPONENT, ("triangle", "triangle_index", "int"))),
}


# ---------------------------------------------------------------------------
# single pivot


def _make_pivot(state: Replayer, cid: int, i: int, target: np.ndarray, stage: str,
                moves: list[Move], counters: Counter, tol: Tolerance) -> bool:
    """Record and apply one pivot, counting it under ``stage``.

    A target equal to the current vertex is a no-op: nothing is recorded
    and False is returned.
    """
    target = np.asarray(target, dtype=float).copy()
    if dist(state.component(cid)[i], target) <= tol.geom_eps:
        return False
    move = PivotMove(cid, i, target, stage)
    if state.apply(move) is not None:
        counters["rhombi"] += 1
    counters[stage] += 1
    moves.append(move)
    return True


def apply_pivot(curve: IntegralCurve, comp: int, i: int, p: np.ndarray,
                tol: Tolerance = DEFAULT_TOL) -> tuple[IntegralCurve, PivotMove | None]:
    """Replace vertex ``i`` of component ``comp`` by ``p``.

    ``p`` must lie on the circle at unit distance from both cyclic
    neighbours.  Returns the new curve and the recorded move; a target equal
    to the current vertex is a no-op and returns the curve unchanged with
    move None.
    """
    state = Replayer(curve, tol)
    moves: list[Move] = []
    if not _make_pivot(state, comp, i, p, "pivot", moves, Counter(), tol):
        return curve.copy(), None
    return state.final_curve(), moves[0]


# ---------------------------------------------------------------------------
# planarize


def _best_plane_through(points: np.ndarray, iv: int, iw: int) -> Plane:
    """Among planes containing the line (v, w), minimize summed squared heights.

    One-parameter family: unit normals orthogonal to w - v.  The quadratic
    form of second moments restricted to that 2-plane is minimized by the
    eigenvector of its smaller eigenvalue (closed form via ``eigh``).
    """
    v = points[iv]
    d = normalize(points[iw] - v)
    seed = np.array([1.0, 0.0, 0.0])
    if abs(float(np.dot(seed, d))) > 0.9:
        seed = np.array([0.0, 1.0, 0.0])
    e1 = normalize(seed - np.dot(seed, d) * d)
    e2 = np.cross(d, e1)
    rel = points - v
    m = rel.T @ rel
    basis = np.column_stack([e1, e2])
    restricted = basis.T @ m @ basis
    eigvals, eigvecs = np.linalg.eigh(restricted)
    normal = basis @ eigvecs[:, 0]
    return Plane(base=v.copy(), normal=normalize(normal))


def _sphere_point_nearest_plane(center: np.ndarray, plane: Plane) -> np.ndarray:
    """Deterministic point of the unit sphere around ``center`` nearest the plane."""
    s = float(np.dot(center - plane.base, plane.normal))
    if abs(s) >= 1.0:
        return center - np.sign(s) * plane.normal
    u = np.cross(plane.normal, np.array([1.0, 0.0, 0.0]))
    if np.linalg.norm(u) <= 1e-6:
        u = np.cross(plane.normal, np.array([0.0, 1.0, 0.0]))
    u = normalize(u)
    return center - s * plane.normal + np.sqrt(1.0 - s * s) * u


_PLANAR_STOP = 1e-10


def _flatten_path(state: Replayer, cid: int, path: list[int], plane: Plane,
                  moves: list[Move], counters: Counter,
                  tol: Tolerance, budget: int) -> None:
    """Drive every interior vertex of one path into the plane.

    Repeatedly pivots the leftmost highest interior vertex to the point of
    its pivot circle nearest the plane.  The chosen vertex always satisfies
    h[j-1] < h[j] >= h[j+1], and the replacement height never exceeds
    h[j-1]; both are asserted because the move budget rests on them.
    """
    v = state.component(cid)
    n = len(v)
    while True:
        heights = np.abs((v[path] - plane.base) @ plane.normal)
        interior = heights[1:-1]
        if len(interior) == 0 or float(np.max(interior)) <= _PLANAR_STOP:
            return
        j = 1 + int(np.argmax(interior))
        if not (heights[j - 1] < heights[j] >= heights[j + 1]):
            raise PlanarizeBudgetError("height maximum selection is inconsistent")
        g = path[j]
        prev = v[(g - 1) % n]
        nxt = v[(g + 1) % n]
        if dist(prev, nxt) <= tol.geom_eps:
            target = _sphere_point_nearest_plane(prev, plane)
        else:
            circle = unit_ball_intersection(prev, nxt, tol)
            target = point_on_circle_nearest_plane(circle, plane, tol)
        new_height = abs(float(np.dot(target - plane.base, plane.normal)))
        if new_height > heights[j - 1] + 1e-12:
            raise PlanarizeBudgetError(
                f"pivot did not descend: {new_height} > {heights[j - 1]}")
        if counters["planarize"] + 1 > budget:
            raise PlanarizeBudgetError("planarize exceeded its move budget")
        if not _make_pivot(state, cid, g, target, "planarize", moves, counters, tol):
            raise PlanarizeBudgetError("planarize produced a no-op pivot")


def _planarize_component(state: Replayer, cid: int, moves: list[Move],
                         counters: Counter, tol: Tolerance) -> Plane:
    v = state.component(cid)
    existing = component_plane(v, tol)
    if existing is not None:
        return existing
    n = len(v)
    iv, iw = farthest_vertex_pair(v)
    plane = _best_plane_through(v, iv, iw)
    budget = n * (n - 1) // 2
    forward = [(iv + k) % n for k in range(((iw - iv) % n) + 1)]
    backward = [(iw + k) % n for k in range(((iv - iw) % n) + 1)]
    _flatten_path(state, cid, forward, plane, moves, counters, tol, budget)
    _flatten_path(state, cid, backward, plane, moves, counters, tol, budget)
    return plane


def planarize(curve: IntegralCurve,
              tol: Tolerance = DEFAULT_TOL) -> tuple[IntegralCurve, list[PivotMove]]:
    """Pivot each component until it lies in a plane.

    Per component: a plane through a farthest vertex pair is chosen to
    minimize summed squared heights, then max-height pivots flatten the two
    paths between the pair.  Uses at most C(n, 2) moves per component.
    """
    curve.validate(tol)
    state = Replayer(curve, tol)
    moves: list[PivotMove] = []
    for cid in range(len(curve.components)):
        _planarize_component(state, cid, moves, Counter(), tol)
    return state.final_curve(), moves


# ---------------------------------------------------------------------------
# bounded-prefix reordering (packing)


# First-fit takes the lowest-index vector whose new prefix stays within this
# radius.  It keeps the packed pentagons small: with the full bound 2 as the
# threshold, ``census --n-min 5 --n-max 80 --samples 3 --seed 0`` needed 3.3x
# as many fix pivots, and the collinear out-and-back digon raised
# FixBudgetExceededError.
_FIRST_FIT_RADIUS = 1.0


def _max_prefix_norm(vectors: np.ndarray, order: np.ndarray) -> float:
    return float(np.max(np.linalg.norm(np.cumsum(vectors[order], axis=0), axis=1)))


def _first_fit_order(vectors: np.ndarray) -> np.ndarray:
    """First fit: each step takes the lowest-index remaining vector whose new
    prefix norm is at most ``_FIRST_FIT_RADIUS``, or else the one with the
    smallest new prefix norm.  Taking low indices first keeps the order's inversions, and
    so the pack pivots that realize it, few.
    """
    remaining = np.arange(len(vectors))
    acc = np.zeros(vectors.shape[1])
    order = []
    while len(remaining):
        norms = np.linalg.norm(acc + vectors[remaining], axis=1)
        fits = np.flatnonzero(norms <= _FIRST_FIT_RADIUS)
        j = int(fits[0]) if len(fits) else int(np.argmin(norms))
        acc = acc + vectors[remaining[j]]
        order.append(int(remaining[j]))
        remaining = np.delete(remaining, j)
    return np.array(order, dtype=int)


def _step_limit(lam: list[float], w: list[float]) -> tuple[float, int, float]:
    """Largest t keeping lam + t * w in [0, 1], the index that binds, and the
    bound (0 or 1) it is pinned at."""
    return min((x / -wi, i, 0.0) if wi < 0 else ((1.0 - x) / wi, i, 1.0)
               for i, (x, wi) in enumerate(zip(lam, w)) if wi != 0.0)


def _elimination_order(vectors: np.ndarray) -> np.ndarray:
    """Order of closed plane vectors of norm <= 1 with every prefix within 2.

    Grinberg and Sevastyanov's elimination (1980), built from the back.
    With m live vectors it keeps weights lam in [0, 1] with sum(lam) = m - 2
    and sum(lam * v) = 0, so the live vectors, which fill the first m
    positions, sum to sum((1 - lam) * v), of norm at most 2.  To fill
    position m, the weights are rescaled to sum m - 3 and moved along null
    vectors of [x; y; 1] on four fractional weights until one weight is 0;
    that vector takes position m.  Each move pins a weight at 0 or 1, and
    once at most three are fractional one of them must be 0, or the weights
    would sum to more than m - 3.
    """
    n = len(vectors)
    live = np.arange(n)
    lam = np.full(n, (n - 2) / n)
    order = np.empty(n, dtype=int)
    for m in range(n, 2, -1):
        lam *= (m - 3) / (m - 2)
        while not np.any(lam == 0.0):
            # the four smallest fractional weights reach a 0 soonest
            frac = np.flatnonzero((lam > 0.0) & (lam < 1.0))
            frac = frac[np.argsort(lam[frac], kind="stable")[:4]]
            if len(frac) < 4:  # only by rounding: the smallest weight goes
                break
            null = np.linalg.svd(np.vstack([vectors[live[frac]].T, np.ones(4)]))[2][-1]
            # of the two directions, prefer one that ends at a 0
            t, i, pin, w = min(
                (_step_limit(lam[frac].tolist(), w.tolist()) + (w,) for w in (null, -null)),
                key=lambda step: step[2])
            lam[frac] = np.clip(lam[frac] + t * w, 0.0, 1.0)
            lam[frac[i]] = pin
        j = int(np.flatnonzero(lam == lam.min())[-1])
        order[m - 1] = live[j]
        live = np.delete(live, j)
        lam = np.delete(lam, j)
    order[:len(live)] = live
    return order


def steinitz_order(vectors: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Permutation keeping every prefix sum of unit plane vectors within 2.

    The identity is returned when it already qualifies.  Otherwise the
    first-fit order is returned (lowest-index vector keeping the prefix
    within 1, else the smallest new prefix), unless one of its prefixes
    exceeds 2; then the Grinberg--Sevastyanov elimination, which proves the
    bound 2 for every closed set of plane vectors of norm at most 1, builds
    the whole order.
    """
    vectors = np.asarray(vectors, dtype=float)
    n = len(vectors)
    norms = np.linalg.norm(vectors, axis=1)
    if float(np.max(np.abs(norms - 1.0))) > 1e-6:
        raise ValueError("vectors must be unit length")
    if float(np.linalg.norm(vectors.sum(axis=0))) > max(1.0, n) * 10 * tol.geom_eps:
        raise NotClosedError("vectors do not sum to zero")
    bound = STEINITZ_BOUND + tol.geom_eps
    identity = np.arange(n)
    if _max_prefix_norm(vectors, identity) <= bound:
        return identity
    order = _first_fit_order(vectors)
    if _max_prefix_norm(vectors, order) <= bound:
        return order
    return _elimination_order(vectors)


def _plane_frame(plane: Plane) -> tuple[np.ndarray, np.ndarray]:
    u = np.cross(plane.normal, np.array([1.0, 0.0, 0.0]))
    if np.linalg.norm(u) <= 1e-6:
        u = np.cross(plane.normal, np.array([0.0, 1.0, 0.0]))
    e1 = normalize(u)
    e2 = np.cross(plane.normal, e1)
    return e1, e2


def _pack_component(state: Replayer, cid: int, moves: list[Move],
                    counters: Counter, tol: Tolerance) -> None:
    """Realize a bounded-prefix edge order with adjacent-transposition pivots.

    Swapping consecutive edge vectors u_j, u_{j+1} moves the shared vertex to
    v_j + u_{j+1}, which for a planar curve is its reflection across the line
    through the neighbours.  Bubble sort realizes the target order with at
    most C(n, 2) swaps; the base vertex 0 never moves.
    """
    v = state.component(cid)
    n = len(v)
    plane = fit_plane(v)
    e1, e2 = _plane_frame(plane)
    edges = np.roll(v, -1, axis=0) - v
    vecs2d = edges @ np.column_stack([e1, e2])
    sigma = steinitz_order(vecs2d, tol)
    pos = np.empty(n, dtype=int)
    pos[sigma] = np.arange(n)
    arrangement = list(range(n))
    swapped = True
    while swapped:
        swapped = False
        for j in range(n - 1):
            if pos[arrangement[j]] > pos[arrangement[j + 1]]:
                target = v[j] + (v[(j + 2) % n] - v[j + 1])
                _make_pivot(state, cid, j + 1, target, "pack", moves, counters, tol)
                arrangement[j], arrangement[j + 1] = arrangement[j + 1], arrangement[j]
                swapped = True
    radii = np.linalg.norm(v - v[0], axis=1)
    if float(np.max(radii)) > STEINITZ_BOUND + tol.geom_eps:
        raise SearchFailedError("packing postcondition violated")


def pack(curve: IntegralCurve,
         tol: Tolerance = DEFAULT_TOL) -> tuple[IntegralCurve, list[PivotMove]]:
    """Pivot each planar component until all vertices are within 2 of vertex 0."""
    curve.validate(tol)
    state = Replayer(curve, tol)
    moves: list[PivotMove] = []
    for cid, comp in enumerate(curve.components):
        if component_plane(comp, tol) is None:
            raise ValueError(f"component {cid} is not planar")
        _pack_component(state, cid, moves, Counter(), tol)
    return state.final_curve(), moves


# ---------------------------------------------------------------------------
# pentagon base case


def _pentagon_ready(p: np.ndarray, tol: Tolerance) -> bool:
    try:
        return apex_at_unit_distance(p[0], p[2], p[3], +1, tol) is not None
    except DegenerateError:
        return False


def _best_circle_sample(p: np.ndarray, tol: Tolerance) -> np.ndarray | None:
    """Point of vertex 2's full pivot circle minimizing circumradius([v0 . v3])."""
    if dist(p[1], p[3]) <= tol.geom_eps:
        return None
    circle = unit_ball_intersection(p[1], p[3], tol)
    e1, e2 = circle_basis(circle)
    theta = 2.0 * np.pi * np.arange(_CIRCLE_SAMPLES) / _CIRCLE_SAMPLES
    pts = (circle.center
           + circle.radius * (np.cos(theta)[:, None] * e1 + np.sin(theta)[:, None] * e2))
    rel0 = pts - p[0]
    rel3 = pts - p[3]
    side_a = np.linalg.norm(rel0, axis=1)
    side_b = np.linalg.norm(rel3, axis=1)
    side_c = dist(p[0], p[3])
    area2 = np.linalg.norm(np.cross(rel0, p[3] - p[0]), axis=1)
    radii = np.where(area2 > tol.geom_eps,
                     side_a * side_b * side_c / np.maximum(2.0 * area2, 1e-300),
                     np.inf)
    j = int(np.argmin(radii))
    if not np.isfinite(radii[j]):
        return None
    return pts[j]


def _fix_candidates(p: np.ndarray, tol: Tolerance):
    """Candidate corrective pivots, deterministic order, lazily generated.

    Three in-line reflections first, then the best of a dense sweep of
    vertex 2's full pivot circle (minimizing the circumradius of [v0 v2 v3]).
    """
    for i, a, b in ((2, 1, 3), (1, 0, 2), (3, 2, 4)):
        if dist(p[a], p[b]) <= tol.geom_eps:
            continue
        target = reflect_across_line(p[i], p[a], p[b], tol)
        if dist(target, p[i]) > tol.geom_eps:
            yield (i, target)
    best = _best_circle_sample(p, tol)
    if best is not None and dist(best, p[2]) > tol.geom_eps:
        yield (2, best)


def _search_fixes(p: np.ndarray, depth: int,
                  tol: Tolerance) -> list[tuple[int, np.ndarray]] | None:
    if _pentagon_ready(p, tol):
        return []
    if depth == 0:
        return None
    for i, target in _fix_candidates(p, tol):
        trial = p.copy()
        trial[i] = target
        rest = _search_fixes(trial, depth - 1, tol)
        if rest is not None:
            return [(i, target)] + rest
    return None


@dataclass
class PentagonSplit:
    rhombi: tuple[Rhombus, Rhombus]
    triangle: TriangleFace
    fixes: list[PivotMove]
    apex: np.ndarray
    pentagon: np.ndarray  # vertices after fixes


def pentagon_split(pentagon: np.ndarray,
                   tol: Tolerance = DEFAULT_TOL) -> PentagonSplit:
    """Split a unit pentagon into two unit rhombi and one unit triangle.

    An apex at unit distance from vertices 0, 2 and 3 exists once the
    circumradius of that triangle is below 1; up to three corrective pivots
    establish this first when needed.  The rhombi are [v0 v1 v2 a] and
    [v0 a v3 v4]; the face is [v2 v3 a].
    """
    p = np.asarray(pentagon, dtype=float).copy()
    if p.shape != (5, 3):
        raise ValueError("pentagon needs exactly 5 vertices")
    for i in range(5):
        side = dist(p[i], p[(i + 1) % 5])
        if abs(side - 1.0) > tol.geom_eps:
            raise ValueError(f"pentagon side {i} has length {side}")
    radii = np.linalg.norm(p - p[0], axis=1)
    if float(np.max(radii)) > STEINITZ_BOUND + 10 * tol.geom_eps:
        raise ValueError("pentagon is not packed around vertex 0")

    plan = _search_fixes(p, FIX_PIVOT_BUDGET, tol)
    if plan is None:
        raise FixBudgetExceededError(
            "no sequence of <= 3 corrective pivots reaches circumradius < 1")
    fixes: list[PivotMove] = []
    state = Replayer(IntegralCurve([p]), tol)
    for i, target in plan:
        _make_pivot(state, 0, i, target, "fix", fixes, Counter(), tol)
    p = state.component(0)
    apex = apex_at_unit_distance(p[0], p[2], p[3], +1, tol)
    if apex is None:
        raise FixBudgetExceededError("corrective pivots failed to open the apex")
    rho_a = Rhombus(np.vstack([p[0], p[1], p[2], apex]))
    rho_b = Rhombus(np.vstack([p[0], apex, p[3], p[4]]))
    face = TriangleFace(np.vstack([p[2], p[3], apex]))
    rho_a.validate(tol)
    rho_b.validate(tol)
    face.validate(tol)
    return PentagonSplit((rho_a, rho_b), face, fixes, apex, p.copy())


# ---------------------------------------------------------------------------
# full reduction


def _choose_bridge(v: np.ndarray, plane: Plane, tol: Tolerance) -> np.ndarray:
    """Point of the plane at unit distance from v[0] and v[3].

    Of the two circle/plane intersection points, the one farther from the
    midpoint of v[1], v[2] is taken so the peeled pentagon does not fold
    straight back onto the remaining curve.
    """
    v1, v4 = v[0], v[3]
    away = 0.5 * (v[1] + v[2])
    d = dist(v1, v4)
    if d <= tol.geom_eps:
        # unit circle around v1 inside the plane
        radial = (v1 - away) - np.dot(v1 - away, plane.normal) * plane.normal
        if np.linalg.norm(radial) <= tol.geom_eps:
            radial = _plane_frame(plane)[0]
        return v1 + normalize(radial)
    circle = unit_ball_intersection(v1, v4, tol)
    w = normalize(np.cross(circle.axis, plane.normal))
    cands = [circle.center + circle.radius * w, circle.center - circle.radius * w]
    return max(cands, key=lambda q: dist(q, away))


def _consume_pentagon(state: Replayer, cid: int, ledger: CobordismLedger,
                      counters: Counter, tol: Tolerance) -> None:
    split = pentagon_split(state.component(cid), tol)
    for fix in split.fixes:
        _make_pivot(state, cid, fix.vertex, fix.new_point, "fix", ledger.moves,
                    counters, tol)
    rho_a, rho_b = split.rhombi
    tri_index = len(ledger.triangles)
    ledger.triangles.append(split.triangle)
    ra_index = len(ledger.final_rhombi)
    ledger.final_rhombi.append(rho_a.reversed())
    ledger.final_rhombi.append(rho_b.reversed())
    counters["rhombi"] += 2
    move = PentagonMove(cid, (ra_index, ra_index + 1), tri_index)
    state.apply(move)
    ledger.moves.append(move)


def reduce_to_rhombi(curve: IntegralCurve,
                     tol: Tolerance = DEFAULT_TOL) -> CobordismLedger:
    """Reduce every component to unit rhombi, emitting a verifiable ledger.

    Components of length 3 become one triangle face, length 4 one boundary
    rhombus; longer components are flattened, packed, and peeled into
    pentagons, each of which yields two rhombi and one triangle.  The total
    number of rhombi used stays within n^2 + 2n - 12 per component.
    """
    curve.validate(tol)
    initial = curve.copy()
    ledger = CobordismLedger(initial=initial)
    state = Replayer(initial, tol)
    next_id = len(initial.components)
    per_component = []
    totals: Counter = Counter()

    for root in range(len(initial.components)):
        n0 = len(initial.components[root])
        if n0 < 3:
            raise ComponentTooShortError(f"component {root} has fewer than 3 edges")
        counters: Counter = Counter()
        if n0 == 3:
            tri = TriangleFace(state.component(root).copy())
            tri.validate(tol)
            idx = len(ledger.triangles)
            ledger.triangles.append(tri)
            move = CloseTriangleMove(root, idx)
            state.apply(move)
            ledger.moves.append(move)
        elif n0 == 4:
            rho = Rhombus(state.component(root).copy()).reversed()
            rho.validate(tol)
            idx = len(ledger.final_rhombi)
            ledger.final_rhombi.append(rho)
            counters["rhombi"] += 1
            move = CloseRhombusMove(root, idx)
            state.apply(move)
            ledger.moves.append(move)
        else:
            plane = _planarize_component(state, root, ledger.moves, counters, tol)
            _pack_component(state, root, ledger.moves, counters, tol)
            while len(state.component(root)) > 5:
                v = state.component(root)
                z = _choose_bridge(v, plane, tol)
                pent_id = next_id
                next_id += 1
                move = SplitMove(root, pent_id, z.copy())
                state.apply(move)
                ledger.moves.append(move)
                counters["splits"] += 1
                _consume_pentagon(state, pent_id, ledger, counters, tol)
            _consume_pentagon(state, root, ledger, counters, tol)
        budget = component_budget(n0)
        if counters["rhombi"] > budget:
            raise PlanarizeBudgetError(
                f"component {root} used {counters['rhombi']} rhombi, budget {budget}")
        per_component.append({"component": root, "edges": n0,
                              "rhombi_used": counters["rhombi"], "budget": budget})
        totals.update(counters)

    ledger.final_curve = state.final_curve()
    ledger.stats = {
        "n": initial.edge_count,
        "k": totals["rhombi"],
        "budget": sum(row["budget"] for row in per_component),
        "planarize_moves": totals["planarize"],
        "pack_moves": totals["pack"],
        "splits": totals["splits"],
        "fixes": totals["fix"],
        "per_component": per_component,
    }
    return ledger
