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

The ledger model -- cells, moves, the move table, the ledger and its
:class:`~rhombidome.surface.Replayer` -- belongs to that checker, in
:mod:`rhombidome.surface`.  The reduction produces its ledger by applying
each move through the same replay.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curve import (
    IntegralCurve,
    component_plane,
    farthest_vertex_pair,
    fit_plane,
)
from .geom import (
    EPS,
    DegenerateError,
    Plane,
    apex_at_unit_distance,
    dist,
    normalize,
    plane_basis,
    point_on_circle_nearest_plane,
    reflect_across_line,
    unit_ball_intersection,
)
from .surface import (
    CloseRhombusMove,
    CloseTriangleMove,
    CobordismLedger,
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
    "NotClosedError",
    "SearchFailedError",
    "FixBudgetExceededError",
    "ComponentTooShortError",
    "apply_pivot",
    "planarize",
    "steinitz_order",
    "pack",
    "pentagon_split",
    "reduce_to_rhombi",
]

STEINITZ_BOUND = 2.0
FIX_PIVOT_BUDGET = 3
_CIRCLE_SAMPLES = 360


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


# ---------------------------------------------------------------------------
# single pivot


def _make_pivot(state: Replayer, cid: int, i: int, target: np.ndarray,
                stage: str) -> bool:
    """Apply, and so record, one pivot of ``stage``.

    A target equal to the current vertex is a no-op: nothing is recorded
    and False is returned.
    """
    target = np.asarray(target, dtype=float).copy()
    if dist(state.component(cid)[i], target) <= EPS:
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
    if not _make_pivot(state, comp, i, p, "pivot"):
        return curve.copy(), None
    return state.final_curve(), state.moves[0]


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
    u = plane_basis(plane.normal)[0]
    return center - s * plane.normal + np.sqrt(1.0 - s * s) * u


_PLANAR_STOP = 1e-10


def _flatten_path(state: Replayer, cid: int, path: list[int], plane: Plane,
                  budget: int) -> None:
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
        if dist(prev, nxt) <= EPS:
            target = _sphere_point_nearest_plane(prev, plane)
        else:
            circle = unit_ball_intersection(prev, nxt)
            target = point_on_circle_nearest_plane(circle, plane)
        new_height = abs(float(np.dot(target - plane.base, plane.normal)))
        if new_height > heights[j - 1] + 1e-12:
            raise PlanarizeBudgetError(
                f"pivot did not descend: {new_height} > {heights[j - 1]}")
        if state.tally[cid]["pivot", "planarize"] + 1 > budget:
            raise PlanarizeBudgetError("planarize exceeded its move budget")
        if not _make_pivot(state, cid, g, target, "planarize"):
            raise PlanarizeBudgetError("planarize produced a no-op pivot")


def _planarize_component(state: Replayer, cid: int) -> Plane:
    v = state.component(cid)
    existing = component_plane(v)
    if existing is not None:
        return existing
    n = len(v)
    iv, iw = farthest_vertex_pair(v)
    plane = _best_plane_through(v, iv, iw)
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


def steinitz_order(vectors: np.ndarray) -> np.ndarray:
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
    if float(np.linalg.norm(vectors.sum(axis=0))) > max(1.0, n) * 10 * EPS:
        raise NotClosedError("vectors do not sum to zero")
    bound = STEINITZ_BOUND + EPS
    identity = np.arange(n)
    if _max_prefix_norm(vectors, identity) <= bound:
        return identity
    order = _first_fit_order(vectors)
    if _max_prefix_norm(vectors, order) <= bound:
        return order
    return _elimination_order(vectors)


def _pack_component(state: Replayer, cid: int) -> None:
    """Realize a bounded-prefix edge order with adjacent-transposition pivots.

    Swapping consecutive edge vectors u_j, u_{j+1} moves the shared vertex to
    v_j + u_{j+1}, which for a planar curve is its reflection across the line
    through the neighbours.  Bubble sort realizes the target order with at
    most C(n, 2) swaps; the base vertex 0 never moves.
    """
    v = state.component(cid)
    n = len(v)
    plane = fit_plane(v)
    e1, e2 = plane_basis(plane.normal)
    edges = np.roll(v, -1, axis=0) - v
    vecs2d = edges @ np.column_stack([e1, e2])
    sigma = steinitz_order(vecs2d)
    pos = np.empty(n, dtype=int)
    pos[sigma] = np.arange(n)
    arrangement = list(range(n))
    swapped = True
    while swapped:
        swapped = False
        for j in range(n - 1):
            if pos[arrangement[j]] > pos[arrangement[j + 1]]:
                target = v[j] + (v[(j + 2) % n] - v[j + 1])
                _make_pivot(state, cid, j + 1, target, "pack")
                arrangement[j], arrangement[j + 1] = arrangement[j + 1], arrangement[j]
                swapped = True
    radii = np.linalg.norm(v - v[0], axis=1)
    if float(np.max(radii)) > STEINITZ_BOUND + EPS:
        raise SearchFailedError("packing postcondition violated")


def pack(curve: IntegralCurve) -> tuple[IntegralCurve, list[PivotMove]]:
    """Pivot each planar component until all vertices are within 2 of vertex 0."""
    curve.validate()
    state = Replayer(curve)
    for cid, comp in enumerate(curve.components):
        if component_plane(comp) is None:
            raise ValueError(f"component {cid} is not planar")
        _pack_component(state, cid)
    return state.final_curve(), state.moves


# ---------------------------------------------------------------------------
# pentagon base case


def _apex(p: np.ndarray) -> np.ndarray | None:
    """The apex over [v0 v2 v3], or None while that triangle has none."""
    try:
        return apex_at_unit_distance(p[0], p[2], p[3], +1)
    except DegenerateError:
        return None


def _best_circle_sample(p: np.ndarray) -> np.ndarray | None:
    """Point of vertex 2's full pivot circle minimizing circumradius([v0 . v3])."""
    if dist(p[1], p[3]) <= EPS:
        return None
    circle = unit_ball_intersection(p[1], p[3])
    e1, e2 = plane_basis(circle.axis)
    theta = 2.0 * np.pi * np.arange(_CIRCLE_SAMPLES) / _CIRCLE_SAMPLES
    pts = (circle.center
           + circle.radius * (np.cos(theta)[:, None] * e1 + np.sin(theta)[:, None] * e2))
    rel0 = pts - p[0]
    rel3 = pts - p[3]
    side_a = np.linalg.norm(rel0, axis=1)
    side_b = np.linalg.norm(rel3, axis=1)
    side_c = dist(p[0], p[3])
    area2 = np.linalg.norm(np.cross(rel0, p[3] - p[0]), axis=1)
    radii = np.where(area2 > EPS,
                     side_a * side_b * side_c / np.maximum(2.0 * area2, 1e-300),
                     np.inf)
    j = int(np.argmin(radii))
    if not np.isfinite(radii[j]):
        return None
    return pts[j]


def _fix_candidates(p: np.ndarray):
    """Candidate corrective pivots, deterministic order, lazily generated.

    Three in-line reflections first, then the best of a dense sweep of
    vertex 2's full pivot circle (minimizing the circumradius of [v0 v2 v3]).
    """
    for i, a, b in ((2, 1, 3), (1, 0, 2), (3, 2, 4)):
        if dist(p[a], p[b]) <= EPS:
            continue
        target = reflect_across_line(p[i], p[a], p[b])
        if dist(target, p[i]) > EPS:
            yield (i, target)
    best = _best_circle_sample(p)
    if best is not None and dist(best, p[2]) > EPS:
        yield (2, best)


def _search_fixes(p: np.ndarray, depth: int) -> tuple[list[PivotMove], np.ndarray] | None:
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
    apex: np.ndarray


def pentagon_split(pentagon: np.ndarray) -> PentagonSplit:
    """Plan the split of a unit pentagon into two unit rhombi and one unit triangle.

    An apex a at unit distance from vertices 0, 2 and 3 exists once the
    circumradius of that triangle is below 1; up to three corrective pivots
    of component 0, the ``fixes``, establish this first when needed.
    Replaying the fixes and a :class:`~rhombidome.surface.PentagonMove`
    through ``apex`` derives the rhombi [v0 v1 v2 a] and [v0 a v3 v4] and
    the face [v2 v3 a].
    """
    p = np.asarray(pentagon, dtype=float).copy()
    _check_unit_cycle(p, "pentagon", 5)
    radii = np.linalg.norm(p - p[0], axis=1)
    if float(np.max(radii)) > STEINITZ_BOUND + 10 * EPS:
        raise ValueError("pentagon is not packed around vertex 0")
    found = _search_fixes(p, FIX_PIVOT_BUDGET)
    if found is None:
        raise FixBudgetExceededError(
            "no sequence of <= 3 corrective pivots reaches circumradius < 1")
    return PentagonSplit(*found)


# ---------------------------------------------------------------------------
# full reduction


def _choose_bridge(v: np.ndarray, plane: Plane) -> np.ndarray:
    """Point of the plane at unit distance from v[0] and v[3].

    Of the two circle/plane intersection points, the one farther from the
    midpoint of v[1], v[2] is taken so the peeled pentagon does not fold
    straight back onto the remaining curve.
    """
    v1, v4 = v[0], v[3]
    away = 0.5 * (v[1] + v[2])
    d = dist(v1, v4)
    if d <= EPS:
        # unit circle around v1 inside the plane
        radial = (v1 - away) - np.dot(v1 - away, plane.normal) * plane.normal
        if np.linalg.norm(radial) <= EPS:
            radial = plane_basis(plane.normal)[0]
        return v1 + normalize(radial)
    circle = unit_ball_intersection(v1, v4)
    w = normalize(np.cross(circle.axis, plane.normal))
    cands = [circle.center + circle.radius * w, circle.center - circle.radius * w]
    return max(cands, key=lambda q: dist(q, away))


def _consume_pentagon(state: Replayer, cid: int) -> None:
    split = pentagon_split(state.component(cid))
    for fix in split.fixes:
        _make_pivot(state, cid, fix.vertex, fix.new_point, "fix")
    state.apply(PentagonMove(cid, split.apex))


def reduce_to_rhombi(curve: IntegralCurve) -> CobordismLedger:
    """Reduce every component to unit rhombi, emitting a verifiable ledger.

    Components of length 3 become one triangle face, length 4 one boundary
    rhombus; longer components are flattened, packed, and peeled into
    pentagons, each of which yields two rhombi and one triangle.  The total
    number of rhombi used stays within n^2 + 2n - 12 per component.
    """
    curve.validate()
    initial = curve.copy()
    state = Replayer(initial)
    ledger = CobordismLedger(initial=initial, moves=state.moves)
    next_id = len(initial.components)

    for root, n0 in enumerate(state.edges):
        if n0 < 3:
            raise ComponentTooShortError(f"component {root} has fewer than 3 edges")
        if n0 == 3:
            state.apply(CloseTriangleMove(root))
        elif n0 == 4:
            state.apply(CloseRhombusMove(root))
        else:
            plane = _planarize_component(state, root)
            _pack_component(state, root)
            while len(state.component(root)) > 5:
                z = _choose_bridge(state.component(root), plane)
                state.apply(SplitMove(root, next_id, z.copy()))
                _consume_pentagon(state, next_id)
                next_id += 1
            _consume_pentagon(state, root)
        used, budget = state.tally[root]["rhombi"], component_budget(n0)
        if used > budget:
            raise PlanarizeBudgetError(
                f"component {root} used {used} rhombi, budget {budget}")

    ledger.final_curve = state.final_curve()
    ledger.stats = state.stats()
    return ledger
