"""Rhombus pivots and the constructive reduction of a curve to unit rhombi.

The pipeline per component peels pentagons where the curve is already
tight: while more than 5 vertices remain, the pentagon [v_i .. v_i+3 z] is
split off at the window of four vertices with the least span |v_i - v_i+3|.
Once that span is within 2, the pentagon is packed around v_i with no pivot,
and ``pentagon_split`` takes it as it is.  One rule, :func:`_local_bridge`,
places every bridge: z is the point at unit distance from v_i and v_i+3
farthest from the midpoint of v_i+1 and v_i+2.  A remainder with no tight
window, or no unique bridge, takes the paper's construction as the
fallback, in one plane through a farthest vertex pair: flatten it into
that plane by pivoting the highest vertex onto the point of its pivot
circle nearest the plane, gather all vertices within distance 2 of vertex
0 by realizing a bounded-prefix reordering of the edge vectors in the
plane with adjacent transpositions, then peel the planar remainder with
the same loop at spans up to 2, packing it again whenever no window
qualifies.  A bridge with no farthest point is then taken in the plane,
along the axis v_i+3 - v_i crossed with the plane's normal.  Each inversion
of the reordering costs one pack pivot, so the order is a first-fit pass
within 2 that prefers low indices; the Grinberg--Sevastyanov elimination,
which proves the prefix bound 2 in the plane, is its fallback.  The pack is
recorded as that order alone, and its replay runs the transpositions.
Every step is recorded as a replayable move so an independent checker can
rebuild each intermediate curve bit for bit and verify the boundary
bookkeeping.

The ledger model -- cells, moves, the move table, the ledger and its
:class:`~rhombidome.surface.Replayer` -- belongs to that checker, in
:mod:`rhombidome.surface`.  The reduction produces its ledger by applying
each move through the same replay.

Points are rows, lists of three Python floats, as in the replay and in
:mod:`rhombidome.geom`.  A replayed component is its id cycle, its points
``points[ids]``: the planarize pivots and the local peel read them through
the ids, the rest copy them with ``Replayer.rows``.  The public
:func:`pentagon_split` takes a list of rows as given and converts any other
input once, and :func:`apply_pivot` its target.  Every decision reads rows,
with Python sums: the plane (:func:`~rhombidome.curve.plane_through`), its
heights and the pack's edges in it.  OpenBLAS picks its kernels by CPU, and
they round differently, but a ledger's bytes must not move.  numpy is left
in :func:`~rhombidome.curve.farthest_vertex_pair` (elementwise), in
:func:`steinitz_order`'s checks and in its elimination's rare ``svd``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curve import (
    IntegralCurve,
    component_plane,
    farthest_vertex_pair,
    plane_through,
)
from .geom import (
    EPS,
    DegenerateError,
    Plane,
    apex_at_unit_distance,
    dist,
    distance_to_plane,
    dot,
    plane_basis,
    point_on_circle_nearest_plane,
    reflect_across_line,
    signed_plane_distance,
    unit_ball_intersection,
)
from .surface import (
    CloseRhombusMove,
    CloseTriangleMove,
    CobordismLedger,
    PackMove,
    PentagonMove,
    PivotMove,
    Replayer,
    SplitMove,
    _check_unit_cycle,
    component_budget,
)

__all__ = [
    "PentagonSplit",
    "PlanarizeBudgetError",
    "RhombusBudgetError",
    "NotClosedError",
    "SearchFailedError",
    "FixBudgetExceededError",
    "apply_pivot",
    "planarize",
    "steinitz_order",
    "pack",
    "pentagon_split",
    "reduce_to_rhombi",
]

STEINITZ_BOUND = 2.0
FIX_PIVOT_BUDGET = 3


class PlanarizeBudgetError(RuntimeError):
    """Flattening exceeded its move budget; indicates a numerical-policy bug."""


class RhombusBudgetError(RuntimeError):
    """A component used more rhombi than its budget n^2 + 2n - 12."""


class NotClosedError(ValueError):
    """Edge vectors do not sum to zero."""


class SearchFailedError(RuntimeError):
    """A packing postcondition failed: a packed vertex is farther than 2 from vertex 0."""


class FixBudgetExceededError(RuntimeError):
    """Pentagon corrective pivots could not reach circumradius < 1."""


# ---------------------------------------------------------------------------
# single pivot


def _make_pivot(state: Replayer, cid: int, i: int, target: list[float],
                stage: str) -> bool:
    """Apply, and so record, one pivot of ``stage`` to the row ``target``,
    which the move holds.

    A target equal to the current vertex is a no-op: nothing is recorded
    and False is returned.
    """
    if math.dist(state.points[state.component(cid)[i]], target) <= EPS:
        return False
    state.apply(PivotMove(cid, i, target, stage))
    return True


def apply_pivot(curve: IntegralCurve, comp: int, i: int,
                p: np.ndarray) -> tuple[IntegralCurve, PivotMove | None]:
    """Replace vertex ``i`` of component ``comp`` by ``p``.

    ``p`` must lie on the circle at unit distance from both cyclic
    neighbours.  Returns the new curve and the recorded move; a target equal
    to the current vertex is a no-op and returns the curve unchanged with
    move None.
    """
    state = Replayer(curve)
    if not _make_pivot(state, comp, i, list(map(float, p)), "pivot"):
        return curve.copy(), None
    return state.final_curve(), state.moves[0]


# ---------------------------------------------------------------------------
# planarize


def _sphere_point_nearest_plane(center: list[float], plane: Plane) -> list[float]:
    """Deterministic point of the unit sphere around ``center`` nearest the plane."""
    s = signed_plane_distance(center, plane)
    if abs(s) >= 1.0:
        sign = 1.0 if s > 0 else -1.0
        return [c - sign * x for c, x in zip(center, plane.normal)]
    r = math.sqrt(1.0 - s * s)
    u = plane_basis(plane.normal)[0]
    return [c - s * x + r * y for c, x, y in zip(center, plane.normal, u)]


_PLANAR_STOP = 1e-10


def _flatten_path(state: Replayer, cid: int, path: list[int], plane: Plane,
                  budget: int) -> None:
    """Drive every interior vertex of one path into the plane.

    Repeatedly pivots the leftmost highest interior vertex to the point of
    its pivot circle nearest the plane.  The chosen vertex always satisfies
    h[j-1] < h[j] >= h[j+1], and the replacement height never exceeds
    h[j-1]; both are asserted because the move budget rests on them.  The
    path's heights are measured once; a pivot changes only its own vertex's.
    A :class:`PlanarizeBudgetError` names the component, the vertex with its
    coordinates and the path heights before, at and after it.
    """
    ids, points = state.component(cid), state.points
    n = len(ids)
    heights = [distance_to_plane(points[ids[g]], plane) for g in path]
    interior = range(1, len(path) - 1)

    def refuse(j: int, reason: str) -> PlanarizeBudgetError:
        row = ", ".join(f"{x:.12g}" for x in points[ids[path[j]]])
        around = ", ".join(f"{h:.12g}" for h in heights[j - 1:j + 2])
        return PlanarizeBudgetError(
            f"{reason} at component {cid} vertex {path[j]} ({row});"
            f" path heights before, at and after it {around}")

    while interior:
        j = max(interior, key=heights.__getitem__)  # the first maximum
        if heights[j] <= _PLANAR_STOP:
            return
        if not (heights[j - 1] < heights[j] >= heights[j + 1]):
            raise refuse(j, "height maximum selection is inconsistent")
        g = path[j]
        prev = points[ids[(g - 1) % n]]
        nxt = points[ids[(g + 1) % n]]
        if dist(prev, nxt) <= EPS:
            target = _sphere_point_nearest_plane(prev, plane)
        else:
            circle = unit_ball_intersection(prev, nxt)
            target = point_on_circle_nearest_plane(circle, plane)
        new_height = distance_to_plane(target, plane)
        if new_height > heights[j - 1] + 1e-12:
            raise refuse(j, f"pivot did not descend: new height {new_height:.12g}")
        if state.tally[cid]["pivot", "planarize"] + 1 > budget:
            raise refuse(j, f"planarize exceeded its move budget of {budget}")
        if not _make_pivot(state, cid, g, target, "planarize"):
            raise refuse(j, "planarize produced a no-op pivot")
        heights[j] = new_height


def _planarize_component(state: Replayer, cid: int) -> Plane:
    rows = state.rows(cid)
    n = len(rows)
    iv, iw = farthest_vertex_pair(rows)
    plane = plane_through(rows, iv, iw)
    budget = n * (n - 1) // 2
    forward = [(iv + k) % n for k in range(((iw - iv) % n) + 1)]
    backward = [(iw + k) % n for k in range(((iv - iw) % n) + 1)]
    _flatten_path(state, cid, forward, plane, budget)
    _flatten_path(state, cid, backward, plane, budget)
    return plane


def planarize(curve: IntegralCurve) -> tuple[IntegralCurve, list[PivotMove]]:
    """Pivot each component until it lies in a plane.

    Per component: a plane through a farthest vertex pair is chosen to
    minimize summed squared heights, then max-height pivots flatten the two
    paths between the pair.  Uses at most C(n, 2) moves per component.
    """
    curve.validate()
    state = Replayer(curve)
    for cid in range(len(curve.components)):
        _planarize_component(state, cid)
    return state.final_curve(), state.moves


# ---------------------------------------------------------------------------
# bounded-prefix reordering (packing)


def _first_fit_order(vectors: np.ndarray) -> list[int] | None:
    """First fit: each step takes the lowest-index remaining vector whose new
    prefix norm is at most ``STEINITZ_BOUND`` (within ``EPS``), or ``None``
    as soon as no remaining vector does.  Taking low indices first keeps the
    order's inversions, and so the pack pivots that realize it, few; the
    identity comes back whenever it qualifies.
    """
    pts = vectors.tolist()
    remaining = list(range(len(pts)))
    back = [0.0] * vectors.shape[1]  # minus the prefix sum
    order = []
    while remaining:
        # |prefix + u| is the distance from u to minus the prefix
        for j, i in enumerate(remaining):
            if math.dist(pts[i], back) <= STEINITZ_BOUND + EPS:
                break
        else:
            return None
        i = remaining.pop(j)
        back = [b - x for b, x in zip(back, pts[i])]
        order.append(i)
    return order


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


def steinitz_order(vectors: np.ndarray) -> np.ndarray:
    """Permutation keeping every prefix sum of unit plane vectors within 2.

    The first-fit order is returned (each step the lowest-index vector
    keeping the prefix within 2), so the identity whenever it qualifies; if
    at some step no vector keeps the prefix within 2, the
    Grinberg--Sevastyanov elimination, which proves the bound 2 for every
    closed set of plane vectors of norm at most 1, builds the whole order.
    """
    vectors = np.asarray(vectors, dtype=float)
    n = len(vectors)
    norms = np.linalg.norm(vectors, axis=1)
    # written as not <= so that NaN fails
    if not float(np.max(np.abs(norms - 1.0), initial=0.0)) <= 1e-6:
        raise ValueError("vectors must be unit length")
    if not float(np.linalg.norm(vectors.sum(axis=0))) <= max(1.0, n) * 10 * EPS:
        raise NotClosedError("vectors do not sum to zero")
    order = _first_fit_order(vectors)
    return _elimination_order(vectors) if order is None else np.array(order, dtype=int)


def _pack_component(state: Replayer, cid: int, plane: Plane) -> None:
    """Realize a bounded-prefix order of the edge vectors, in the basis
    ``plane_basis(plane.normal)``, as one :class:`PackMove`.

    Its replay swaps consecutive edge vectors u_j, u_{j+1} by moving the
    shared vertex to v_j + u_{j+1}, which for a planar curve is its
    reflection across the line through the neighbours.  Bubble sort realizes
    the order with at most C(n, 2) swaps; the base vertex 0 never moves.  An
    identity order records nothing.
    """
    v = state.rows(cid)
    n = len(v)
    e1, e2 = plane_basis(plane.normal)
    edges = [[y - x for x, y in zip(p, q)] for p, q in zip(v, v[1:] + v[:1])]
    sigma = steinitz_order(np.array([[dot(u, e1), dot(u, e2)] for u in edges])).tolist()
    if sigma != list(range(n)):
        state.apply(PackMove(cid, sigma))
        v = state.rows(cid)
    radii = [math.dist(p, v[0]) for p in v]
    if max(radii) > STEINITZ_BOUND + EPS:
        j = next(j for j, r in enumerate(radii) if r > STEINITZ_BOUND + EPS)
        row = ", ".join(f"{x:.12g}" for x in v[j])
        raise SearchFailedError(
            f"packing postcondition violated at component {cid} vertex {j} ({row}):"
            f" radius {radii[j]:.12g} from vertex 0 exceeds {STEINITZ_BOUND:g}")


def pack(curve: IntegralCurve) -> tuple[IntegralCurve, list[PackMove]]:
    """Pivot each planar component until all vertices are within 2 of vertex 0.

    Returns the packed curve and one :class:`PackMove` per component that
    was not packed already.
    """
    curve.validate()
    state = Replayer(curve)
    for cid, comp in enumerate(curve.components):
        plane = component_plane(comp)
        if plane is None:
            raise ValueError(f"component {cid} is not planar")
        _pack_component(state, cid, plane)
    return state.final_curve(), state.moves


# ---------------------------------------------------------------------------
# pentagon base case


def _apex(p: list[list[float]]) -> list[float] | None:
    """The apex over [v0 v2 v3], or None while that triangle has none."""
    try:
        return apex_at_unit_distance(p[0], p[2], p[3], +1)
    except DegenerateError:
        return None


# (vertex, its neighbours) of the in-line reflections
_REFLECTED = ((2, 1, 3), (1, 0, 2), (3, 2, 4))


def _fix_candidates(p: list[list[float]]):
    """Candidate corrective pivots, deterministic order, lazily generated.

    Three in-line reflections first.  Then each of vertices 2, 1, 3 and 4
    whose two neighbours coincide is turned half a turn about them: such a
    vertex may move anywhere on the unit sphere around them, and no
    reflection moves it.
    """
    for i, a, b in _REFLECTED:
        if dist(p[a], p[b]) <= EPS:
            continue
        target = reflect_across_line(p[i], p[a], p[b])
        if dist(target, p[i]) > EPS:
            yield (i, target)
    for i, a, b in _REFLECTED + ((4, 3, 0),):
        if dist(p[a], p[b]) <= EPS:
            yield (i, [2.0 * x - y for x, y in zip(p[a], p[i])])


def _search_fixes(p: list[list[float]],
                  depth: int) -> tuple[list[PivotMove], list[float]] | None:
    """At most ``depth`` fix pivots of component 0 that open the apex, and
    the apex they open, each pivot applied to a copy of ``p``."""
    apex = _apex(p)
    if apex is not None:
        return [], apex
    if depth == 0:
        return None
    for i, target in _fix_candidates(p):
        trial = p.copy()
        trial[i] = target
        found = _search_fixes(trial, depth - 1)
        if found is not None:
            return [PivotMove(0, i, target, "fix")] + found[0], found[1]
    return None


@dataclass
class PentagonSplit:
    fixes: list[PivotMove]
    apex: list[float]


def pentagon_split(pentagon: list | np.ndarray) -> PentagonSplit:
    """Plan the split of a unit pentagon into two unit rhombi and one unit triangle.

    ``pentagon`` is a list of five rows, taken as given, or anything else
    numpy reads as five points, converted to rows once.

    An apex a at unit distance from vertices 0, 2 and 3 exists once the
    circumradius of that triangle is below 1; up to three corrective pivots
    of component 0, the ``fixes``, establish this first when needed.
    Replaying the fixes and a :class:`~rhombidome.surface.PentagonMove`
    through ``apex`` derives the rhombi [v0 v1 v2 a] and [v0 a v3 v4] and
    the face [v2 v3 a].
    """
    p = pentagon if type(pentagon) is list else np.asarray(pentagon, dtype=float).tolist()
    _check_unit_cycle(p, "pentagon", 5)
    found = _search_fixes(p, FIX_PIVOT_BUDGET)
    if found is None:
        rows = ", ".join("(" + ", ".join(f"{x:.12g}" for x in row) + ")" for row in p)
        raise FixBudgetExceededError(
            "no sequence of <= 3 corrective pivots reaches circumradius < 1"
            f" on the pentagon {rows}")
    return PentagonSplit(*found)


# ---------------------------------------------------------------------------
# full reduction


def _consume_pentagon(state: Replayer, cid: int) -> None:
    split = pentagon_split(state.rows(cid))
    for fix in split.fixes:
        _make_pivot(state, cid, fix.vertex, fix.new_point, "fix")
    state.apply(PentagonMove(cid, split.apex))


# A local pentagon [v_i .. v_i+3 z] is packed around v_i once |v_i - v_i+3|
# is within this; the margin keeps the bridge circle's radius above 1e-3.
_TIGHT_SPAN = STEINITZ_BOUND - 1e-6


def _local_bridge(points: list[list[float]], v: list[int], i: int,
                  normal: list[float] | None = None) -> list[float] | None:
    """The bridge of every split: the point at unit distance from v[i] and
    v[i+3] (cyclic) farthest from the midpoint m of v[i+1] and v[i+2];
    ``v`` is an id cycle into ``points``.

    The points at unit distance form a circle about the midpoint c of v[i]
    and v[i+3], or the unit sphere about it when the two coincide; the
    farthest from m lies along the part of c - m across the axis v[i+3] -
    v[i].  That part is the double cross product axis x ((c - m) x axis),
    which rounds at its own size: it stays orthogonal to the axis, and the
    bridge at unit distance, even when c - m lies within 1e-8 of the axis
    and its along-axis part is O(1).  When no farthest point exists, the
    part being within ``EPS``, the bridge lies along axis x ``normal`` if
    the plane ``normal`` of a planar remainder is given, and is None
    otherwise.
    """
    n = len(v)
    p, s = points[v[i]], points[v[(i + 3) % n]]
    px, py, pz = p
    sx, sy, sz = s
    qx, qy, qz = points[v[(i + 1) % n]]
    rx, ry, rz = points[v[(i + 2) % n]]
    cx, cy, cz = 0.5 * (px + sx), 0.5 * (py + sy), 0.5 * (pz + sz)
    wx, wy, wz = cx - 0.5 * (qx + rx), cy - 0.5 * (qy + ry), cz - 0.5 * (qz + rz)
    span = math.dist(p, s)
    radius = 1.0
    if span > EPS:
        ax, ay, az = (sx - px) / span, (sy - py) / span, (sz - pz) / span
        # w = c - m, then its part across the axis a x (w x a)
        tx, ty, tz = wy * az - wz * ay, wz * ax - wx * az, wx * ay - wy * ax
        wx, wy, wz = ay * tz - az * ty, az * tx - ax * tz, ax * ty - ay * tx
        # a fallback window spans up to 2 + EPS
        radius = math.sqrt(max(0.0, 1.0 - 0.25 * span * span))
        if normal is not None and math.hypot(wx, wy, wz) <= EPS:
            nx, ny, nz = normal
            wx, wy, wz = ay * nz - az * ny, az * nx - ax * nz, ax * ny - ay * nx
    norm = math.hypot(wx, wy, wz)
    if norm <= EPS:
        return None
    return [cx + radius * wx / norm, cy + radius * wy / norm, cz + radius * wz / norm]


def _peel_tight(state: Replayer, cid: int, next_id: int,
                normal: list[float] | None = None) -> int:
    """Peel pentagons off component ``cid`` at its tightest window while one
    qualifies, and return the next free component id.

    Window i is [v_i .. v_i+3] (cyclic), its span |v_i - v_i+3|.  Each peel
    takes the first window of least span, if that span is within
    ``_TIGHT_SPAN`` and :func:`_local_bridge` finds its bridge, and stops at
    5 vertices or when no window qualifies.  Given the plane ``normal`` of a
    packed remainder, a span qualifies up to the bound 2 (within ``EPS``),
    which window 0 meets, and every bridge is found: at least one pentagon
    peels.  The remainder [v_i z v_i+3 .. v_i-1] starts at v_i, so its spans
    are the old ones rotated, except for the four windows that meet the
    bridge.
    """
    ids, points = state.component(cid), state.points
    n = len(ids)
    limit = _TIGHT_SPAN if normal is None else STEINITZ_BOUND + EPS
    spans = [math.dist(points[ids[j]], points[ids[(j + 3) % n]]) for j in range(n)]
    while n > 5:
        tight = min(spans)
        i = spans.index(tight)
        z = _local_bridge(points, ids, i, normal) if tight <= limit else None
        if z is None:
            break
        state.apply(SplitMove(cid, next_id, z, at=i))
        _consume_pentagon(state, next_id)
        next_id += 1
        ids = state.component(cid)
        kept = (i + 3) % n
        n -= 1
        v0, v1, v2 = points[ids[0]], points[ids[1]], points[ids[2]]
        spans = ([math.dist(v0, points[ids[3]]), math.dist(v1, points[ids[4]])]
                 + (spans[kept:] + spans[:kept])[:n - 4]
                 + [math.dist(points[ids[-2]], v1), math.dist(points[ids[-1]], v2)])
    return next_id


def reduce_to_rhombi(curve: IntegralCurve) -> CobordismLedger:
    """Reduce every component to unit rhombi, emitting a verifiable ledger.

    Components of length 3 become one triangle face, length 4 one boundary
    rhombus.  A longer component is peeled into pentagons, each of which
    yields two rhombi and one triangle: each peel is local, at the tightest
    window of four vertices (:func:`_peel_tight`).  A remainder of more than
    5 vertices with no tight window is flattened, then packed and peeled by
    the same loop, given the remainder's plane, until at most 5 vertices are
    left; each round peels at least the packed window 0.  A 5-vertex
    component is packed around vertex 0 already.  The total number of rhombi
    used stays within n^2 + 2n - 12 per component; a component above it
    raises :class:`RhombusBudgetError`.
    """
    curve.validate()
    initial = curve.copy()
    state = Replayer(initial)
    ledger = CobordismLedger(initial=initial, moves=state.moves)
    next_id = len(initial.components)

    for root, n0 in enumerate(state.edges):
        if n0 == 3:
            state.apply(CloseTriangleMove(root))
        elif n0 == 4:
            state.apply(CloseRhombusMove(root))
        else:
            next_id = _peel_tight(state, root, next_id)
            if len(state.component(root)) > 5:
                plane = _planarize_component(state, root)
                while len(state.component(root)) > 5:
                    _pack_component(state, root, plane)
                    next_id = _peel_tight(state, root, next_id, plane.normal)
            _consume_pentagon(state, root)
        used, budget = state.tally[root]["rhombi"], component_budget(n0)
        if used > budget:
            raise RhombusBudgetError(
                f"component {root} used {used} rhombi, budget {budget}")

    ledger.final_curve = state.final_curve()
    ledger.stats = state.stats()
    return ledger
