"""Combinatorial surfaces with boundary, the ledger model and its checker.

A :class:`GraphSurface` is a 2-complex sitting inside a closed surface: a set
of abstract edges (a multigraph is allowed), oriented triangles, and one
closed boundary walk per complement disk.  Oriented edge references are
encoded as ``+(id + 1)`` / ``-(id + 1)``.

Orientation convention: boundary walks are oriented as seen from the complex
(not from the complement disks), so for a consistently oriented closed
surface the chain  sum(triangle boundaries) - sum(walks)  is zero edge by
edge, and every edge is used by exactly two cell sides overall.  This is the
checkable orientability test used by the certificates.

The module also owns the reduction ledger: its cells, its moves, the
:class:`Replayer` that applies them and :func:`validate_ledger`, the
independent checker.  It depends on nothing in the producer
(:mod:`rhombidome.cobordism`), which records its moves through this replay.

Move semantics (state = components keyed by stable integer ids).  A move
records only the decision taken; everything else follows from the state it
is replayed on:

* ``PivotMove``      -- move one vertex to ``new_point``, which must lie at
                        unit distance from both neighbours.  The old point
                        and the emitted cell ``[prev old next new]`` are read
                        off the state; when the neighbours coincide the pivot
                        is degenerate and emits no cell.
* ``SplitMove``      -- peel ``[v0 v1 v2 v3 z]`` off a component as component
                        ``new_component``, leaving ``[v0 z v3 v4 ...]``; the
                        bridge ``z`` must lie at unit distance from v0 and v3.
* ``PentagonMove``   -- consume a 5-cycle ``[v0 .. v4]`` through its recorded
                        ``apex`` a, which must lie at unit distance from v0,
                        v2 and v3: the triangle ``[v2 v3 a]`` and the boundary
                        rhombi ``[v0 v1 v2 a]`` and ``[v0 a v3 v4]``, reversed.
* ``CloseRhombusMove`` / ``CloseTriangleMove`` -- consume a 4-cycle as the
                        boundary rhombus of its reversal, a 3-cycle as a
                        triangle.

The replay checks every edge a move creates, so once the initial curve is
unit every replayed edge is, and so is every derived cell; a consumed cycle
equals the boundary of its cells by construction.  Edges shared by two
cells, or by a split's two pieces, cancel in the chain identity by
orientation alone, so no seam is recorded.  ``MOVE_TABLE`` is the one place
that maps a move's JSON ``type`` to its class, its fields and its replay
step.

Boundary rhombi are reversed so that the assembled 2-chain has boundary
equal to (initial curve) + (rhombi).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, ClassVar, NamedTuple

import numpy as np

from .curve import IntegralCurve
from .geom import EPS, apex_at_unit_distance, dist

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
    "Replayer",
    "NotOnPivotCircleError",
    "ReplayMismatchError",
    "component_budget",
    "GraphSurface",
    "DomeChain",
    "LedgerReport",
    "NotBoundaryEdgeError",
    "NotInTriangleError",
    "PositioningViolatedError",
    "UnknownNameError",
    "SurfaceInvariantError",
    "ref_edge",
    "collapse",
    "catalog",
    "is_oriented_consistently",
    "assemble_from_ledger",
    "validate_ledger",
    "hexagon_join",
    "signed_segment_counts",
]


class SurfaceInvariantError(ValueError):
    """The combinatorial data does not describe a valid graph surface."""


class NotBoundaryEdgeError(ValueError):
    """The requested edge does not occur on any boundary walk."""


class NotInTriangleError(ValueError):
    """The requested edge is not a side of the requested triangle."""


class PositioningViolatedError(ValueError):
    """Rhombus pair does not meet the shared-vertex / unit-gap conditions."""


class UnknownNameError(KeyError):
    """No catalog surface under this name."""


class NotOnPivotCircleError(ValueError):
    """Pivot target is not at unit distance from both neighbours."""


class ReplayMismatchError(RuntimeError):
    """A recorded move does not match the replayed curve state."""


def ref_edge(ref: int) -> tuple[int, int]:
    """Decode a signed edge reference into (edge id, sign)."""
    if ref == 0:
        raise ValueError("edge reference 0 is invalid")
    return abs(ref) - 1, (1 if ref > 0 else -1)


@dataclass
class GraphSurface:
    """Surface-with-boundary data; see module docstring for conventions."""

    name: str
    vertex_count: int
    edges: list[tuple[int, int]]
    lengths: np.ndarray
    triangles: list[tuple[int, int, int]]
    walks: list[list[int]]
    coords: np.ndarray | None = None
    genus_hat: int = 0

    def validate(self) -> None:
        n_edges = len(self.edges)
        if len(self.lengths) != n_edges:
            raise SurfaceInvariantError("one length per edge pair required")
        if np.any(np.asarray(self.lengths) <= 0):
            raise SurfaceInvariantError("edge lengths must be positive")
        for tail, head in self.edges:
            if not (0 <= tail < self.vertex_count and 0 <= head < self.vertex_count):
                raise SurfaceInvariantError("edge endpoint out of range")
        usage = np.zeros(n_edges, dtype=int)
        for t in self.triangles:
            if len(t) != 3:
                raise SurfaceInvariantError("triangles need exactly 3 edge refs")
            self._check_cycle(t, "triangle")
            a, b, c = (self.lengths[abs(r) - 1] for r in t)
            if not (a + b > c and b + c > a and c + a > b):
                raise SurfaceInvariantError("triangle inequality violated")
            for r in t:
                usage[abs(r) - 1] += 1
        for walk in self.walks:
            if len(walk) < 1:
                raise SurfaceInvariantError("empty boundary walk")
            self._check_cycle(walk, "boundary walk")
            for r in walk:
                usage[abs(r) - 1] += 1
        if np.any(usage != 2):
            raise SurfaceInvariantError(
                "every edge must be used exactly twice across triangles and walks")
        chi = self.vertex_count - n_edges + len(self.triangles) + len(self.walks)
        if chi != 2 - 2 * self.genus_hat:
            raise SurfaceInvariantError(
                f"Euler characteristic {chi} != {2 - 2 * self.genus_hat}")
        if self.coords is not None:
            if self.coords.shape != (self.vertex_count, 3):
                raise SurfaceInvariantError("coords shape mismatch")
            for eid, (tail, head) in enumerate(self.edges):
                got = dist(self.coords[tail], self.coords[head])
                if abs(got - float(self.lengths[eid])) > EPS:
                    raise SurfaceInvariantError(
                        f"edge {eid} realizes length {got}, expected {self.lengths[eid]}")

    def _check_cycle(self, refs, what: str) -> None:
        ends = [self.ref_endpoints(r) for r in refs]
        for (_, head), (tail, _) in zip(ends, ends[1:] + ends[:1]):
            if head != tail:
                raise SurfaceInvariantError(f"{what} is not a closed edge cycle")

    def ref_endpoints(self, ref: int) -> tuple[int, int]:
        eid, sign = ref_edge(ref)
        tail, head = self.edges[eid]
        return (tail, head) if sign > 0 else (head, tail)


def is_oriented_consistently(s: GraphSurface) -> bool:
    """True iff triangle boundaries minus walks cancel on every edge."""
    acc = np.zeros(len(s.edges), dtype=int)
    for t in s.triangles:
        for r in t:
            eid, sign = ref_edge(r)
            acc[eid] += sign
    for walk in s.walks:
        for r in walk:
            eid, sign = ref_edge(r)
            acc[eid] -= sign
    return bool(np.all(acc == 0))


# ---------------------------------------------------------------------------
# collapse


def collapse(s: GraphSurface, triangle_index: int, boundary_ref: int) -> GraphSurface:
    """Remove one triangle along a boundary edge, rewriting the walk.

    With triangle boundary (g, e, e') cyclically ordered from the boundary
    edge g, the walk occurrence of g becomes the two-edge path (-e', -e).
    Component count and Euler characteristic are preserved.
    """
    if not 0 <= triangle_index < len(s.triangles):
        raise NotInTriangleError(f"no triangle {triangle_index}")
    tri = list(s.triangles[triangle_index])
    if boundary_ref not in tri:
        raise NotInTriangleError("edge is not a side of this triangle")
    k = tri.index(boundary_ref)
    g, e, e_prime = tri[k], tri[(k + 1) % 3], tri[(k + 2) % 3]
    location = None
    for wi, walk in enumerate(s.walks):
        for pos, r in enumerate(walk):
            if r == g:
                location = (wi, pos)
                break
        if location:
            break
    if location is None:
        raise NotBoundaryEdgeError("edge does not occur on any boundary walk")
    wi, pos = location

    removed = abs(g) - 1
    remap = {old: (old if old < removed else old - 1)
             for old in range(len(s.edges)) if old != removed}

    def map_ref(r: int) -> int:
        eid, sign = ref_edge(r)
        return sign * (remap[eid] + 1)

    new_edges = [ep for i, ep in enumerate(s.edges) if i != removed]
    new_lengths = np.delete(np.asarray(s.lengths, dtype=float), removed)
    new_triangles = [tuple(map_ref(r) for r in t)
                     for i, t in enumerate(s.triangles) if i != triangle_index]
    new_walks = []
    for wj, walk in enumerate(s.walks):
        if wj == wi:
            rewritten = walk[:pos] + [-e_prime, -e] + walk[pos + 1:]
        else:
            rewritten = list(walk)
        new_walks.append([map_ref(r) for r in rewritten])
    out = GraphSurface(
        name=f"{s.name}/collapsed",
        vertex_count=s.vertex_count,
        edges=new_edges,
        lengths=new_lengths,
        triangles=new_triangles,
        walks=new_walks,
        coords=None if s.coords is None else s.coords.copy(),
        genus_hat=s.genus_hat,
    )
    out.validate()
    return out


# ---------------------------------------------------------------------------
# catalog


def _regular_polygon(k: int, radius: float, z: float, angle0: float = 0.0) -> np.ndarray:
    angles = angle0 + 2.0 * np.pi * np.arange(k) / k
    return np.column_stack([radius * np.cos(angles), radius * np.sin(angles),
                            np.full(k, z)])


def _triangle_disk() -> GraphSurface:
    coords = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                       [0.5, np.sqrt(3.0) / 2.0, 0.0]])
    return GraphSurface(
        name="triangle_disk",
        vertex_count=3,
        edges=[(0, 1), (1, 2), (2, 0)],
        lengths=np.ones(3),
        triangles=[(1, 2, 3)],
        walks=[[1, 2, 3]],
        coords=coords,
    )


def _antiprism_band(k: int) -> GraphSurface:
    if k < 3:
        raise UnknownNameError("antiprism_band needs k >= 3")
    r = 1.0 / (2.0 * np.sin(np.pi / k))
    h = np.sqrt(1.0 - 4.0 * r * r * np.sin(np.pi / (2 * k)) ** 2)
    bottom = _regular_polygon(k, r, 0.0)
    top = _regular_polygon(k, r, h, angle0=np.pi / k)
    coords = np.vstack([bottom, top])

    edges = []
    for i in range(k):
        edges.append((i, (i + 1) % k))              # bottom ring: ids 0..k-1
    for i in range(k):
        edges.append((k + i, k + (i + 1) % k))      # top ring: ids k..2k-1
    for i in range(k):
        edges.append((i, k + i))                    # lat_a: ids 2k..3k-1
    for i in range(k):
        edges.append((k + i, (i + 1) % k))          # lat_b: ids 3k..4k-1

    def bot(i):
        return i % k + 1

    def topr(i):
        return k + i % k + 1

    def lat_a(i):
        return 2 * k + i % k + 1

    def lat_b(i):
        return 3 * k + i % k + 1

    triangles = []
    for i in range(k):
        triangles.append((bot(i), -lat_b(i), -lat_a(i)))
        triangles.append((-topr(i), lat_b(i), lat_a(i + 1)))
    walk_bottom = [bot(i) for i in range(k)]
    walk_top = [-topr(i) for i in range(k - 1, -1, -1)]
    return GraphSurface(
        name=f"antiprism_band:k={k}",
        vertex_count=2 * k,
        edges=edges,
        lengths=np.ones(4 * k),
        triangles=triangles,
        walks=[walk_bottom, walk_top],
        coords=coords,
    )


def _pentagon_pants() -> GraphSurface:
    radius = 1.0 / (2.0 * np.sin(np.pi / 5.0))
    penta = _regular_polygon(5, radius, 0.0)
    apex = apex_at_unit_distance(penta[0], penta[2], penta[3], +1)
    assert apex is not None
    coords = np.vstack([penta, apex])
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),   # pentagon sides, ids 0..4
             (0, 5), (2, 5), (3, 5)]                   # spokes to the apex
    return GraphSurface(
        name="pentagon_pants",
        vertex_count=6,
        edges=edges,
        lengths=np.ones(8),
        triangles=[(3, 8, -7)],
        walks=[
            [1, 2, 3, 4, 5],      # the pentagon
            [6, -7, -2, -1],      # first rhombus, reversed
            [-5, -4, 8, -6],      # second rhombus, reversed
        ],
        coords=coords,
    )


def _three_rhombus_pants() -> GraphSurface:
    # Pentagon with an equilateral cap on each of its two long walks: the
    # double-pentagon pivot dome with both 5-walks shortened to 4-gons.
    x3 = np.array([0.0, 0.0, 0.0])
    x4 = np.array([1.0, 0.0, 0.0])
    x5 = np.array([0.5, np.sqrt(3.0) / 2.0, 0.0])
    x1 = x5 + np.array([0.8, 0.6, 0.0])
    d = dist(x1, x3)
    mid = 0.5 * (x1 + x3)
    height = np.sqrt(1.0 - 0.25 * d * d)
    chord = (x3 - x1) / d
    perp = np.array([-chord[1], chord[0], 0.0])
    x2 = mid + height * perp
    x2p = mid - height * perp
    coords = np.vstack([x1, x2, x3, x4, x5, x2p])
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
             (0, 5), (5, 2),
             (2, 4),    # id 7: cap diagonal used by the first walk
             (2, 4)]    # id 8: parallel cap diagonal used by the second walk
    return GraphSurface(
        name="three_rhombus_pants",
        vertex_count=6,
        edges=edges,
        lengths=np.ones(9),
        triangles=[(8, -4, -3), (-9, 3, 4)],
        walks=[
            [1, 2, 8, 5],
            [-5, -9, -7, -6],
            [6, 7, -2, -1],
        ],
        coords=coords,
    )


def catalog(name: str, k: int | None = None) -> GraphSurface:
    """Named test surfaces with explicit unit-edge coordinates.

    Only ``antiprism_band`` takes ``k``; giving it to another name raises.
    """
    if k is not None and name != "antiprism_band":
        raise UnknownNameError(f"catalog surface {name!r} takes no parameter k")
    if name == "triangle_disk":
        s = _triangle_disk()
    elif name == "antiprism_band":
        s = _antiprism_band(4 if k is None else k)
    elif name == "pentagon_pants":
        s = _pentagon_pants()
    elif name == "three_rhombus_pants":
        s = _three_rhombus_pants()
    else:
        raise UnknownNameError(f"unknown catalog surface {name!r}")
    s.validate()
    return s


# ---------------------------------------------------------------------------
# cells and moves


def _check_unit_cycle(v: np.ndarray, what: str, n: int) -> None:
    """Raise ValueError unless ``v`` is a closed n-gon with unit sides."""
    if v.shape != (n, 3):
        raise ValueError(f"{what} needs exactly {n} vertices")
    pts = v.tolist()
    for i in range(n):
        side = math.dist(pts[i], pts[(i + 1) % n])
        if not abs(side - 1.0) <= EPS:  # NaN fails
            raise ValueError(f"{what} side {i} has length {side}")


@dataclass
class Rhombus:
    """Closed 4-cycle with four unit sides (possibly non-planar)."""

    vertices: np.ndarray  # (4, 3)

    def validate(self) -> None:
        _check_unit_cycle(np.asarray(self.vertices, dtype=float), "rhombus", 4)


@dataclass
class TriangleFace:
    """Unit equilateral triangle cell."""

    vertices: np.ndarray  # (3, 3)

    def validate(self) -> None:
        _check_unit_cycle(np.asarray(self.vertices, dtype=float), "triangle", 3)


# the stages a pivot may record: the three the stats count, and ``pivot`` for
# a lone :func:`rhombidome.cobordism.apply_pivot`
_PIVOT_STAGES = frozenset(("planarize", "pack", "fix", "pivot"))


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
    apex: np.ndarray


@dataclass
class CloseRhombusMove:
    kind: ClassVar[str] = "close_rhombus"
    component: int


@dataclass
class CloseTriangleMove:
    kind: ClassVar[str] = "close_triangle"
    component: int


Move = PivotMove | SplitMove | PentagonMove | CloseRhombusMove | CloseTriangleMove


@dataclass
class CobordismLedger:
    """Replayable record of one reduction run.

    Every cell, the boundary rhombi included, is derived on replay
    (:func:`assemble_from_ledger`).  ``stats`` carries the edge count n, the
    total number of rhombi used k, the upper bound ``budget``, per-stage
    counters and one row per input component, as :meth:`Replayer.stats`
    computes them from the moves.
    """

    initial: IntegralCurve
    moves: list[Move] = field(default_factory=list)
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

    Besides the component state it keeps ``moves``, every move applied, in
    order, and the cells the consuming moves derive, in move order:
    ``triangles`` and the boundary ``rhombi``.  It also counts, per input
    component, the rhombi the moves add to k, the pivots by stage and the
    splits; a split's new piece counts toward its parent's input component.
    :meth:`stats` reports these counts as a ledger's ``stats``.
    """

    def __init__(self, initial: IntegralCurve):
        self.components: dict[int, np.ndarray] = {
            i: np.asarray(c, dtype=float).copy() for i, c in enumerate(initial.components)
        }
        self.edges = [len(c) for c in self.components.values()]
        self.moves: list[Move] = []
        self.triangles: list[TriangleFace] = []
        self.rhombi: list[Rhombus] = []
        # one Counter per input component; ``tally`` maps every component id,
        # split pieces included, to the Counter of its input component
        self.tallies = [Counter() for _ in self.edges]
        self.tally: dict[int, Counter] = dict(enumerate(self.tallies))

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
        cell = spec.apply(self, move)
        self.moves.append(move)
        return cell

    def _check_unit_from(self, point: list, ends: tuple, error: type[Exception],
                         what: str) -> None:
        """Raise ``error``, naming the distance and the end, unless ``point`` is
        at unit distance from the end of every ``(name, end)`` pair."""
        for name, end in ends:
            side = math.dist(end, point)
            if not abs(side - 1.0) <= EPS:  # NaN fails
                raise error(f"{what} at distance {side} from {name}")

    def _apply_pivot(self, move: PivotMove) -> Rhombus | None:
        v = self.component(move.component)
        n = len(v)
        if not 0 <= move.vertex < n:
            raise ReplayMismatchError("pivot vertex out of range")
        if move.stage not in _PIVOT_STAGES:
            raise ReplayMismatchError(f"unknown pivot stage {move.stage!r}")
        # the would-be cell [prev old next new], gathered once: new must be at
        # unit distance from prev and next, and prev and next apart for a cell
        quad = v.take(((move.vertex - 1) % n, move.vertex, (move.vertex + 1) % n,
                       move.vertex), axis=0)
        quad[3] = move.new_point
        prev, _, nxt, new = quad.tolist()
        self._check_unit_from(new, (("a neighbour", prev), ("a neighbour", nxt)),
                              NotOnPivotCircleError, "pivot target")
        tally = self.tally[move.component]
        tally["pivot", move.stage] += 1
        cell = None
        if math.dist(prev, nxt) > EPS:
            cell = Rhombus(quad)
            tally["rhombi"] += 1
        v[move.vertex] = quad[3]
        return cell

    def _apply_split(self, move: SplitMove) -> None:
        v = self.component(move.component)
        if len(v) < 6:
            raise ReplayMismatchError("split needs a component with > 5 edges")
        if move.new_component in self.components:
            raise ReplayMismatchError("split target id already in use")
        z = np.asarray(move.z, dtype=float)
        self._check_unit_from(z.tolist(), (("vertex 0", v[0].tolist()),
                                           ("vertex 3", v[3].tolist())),
                              ReplayMismatchError, "split bridge")
        pentagon = np.vstack([v[0:4], z[None, :]])
        remainder = np.vstack([v[0:1], z[None, :], v[3:]])
        self.components[move.new_component] = pentagon
        self.components[move.component] = remainder
        self.tally[move.new_component] = self.tally[move.component]
        self.tally[move.component]["split"] += 1

    def _apply_pentagon(self, move: PentagonMove) -> None:
        # rows 0-4 the pentagon, row 5 the apex a
        q = np.empty((6, 3))
        q[:5] = self._cycle(move.component, 5)
        q[5] = move.apex
        p = q.tolist()
        self._check_unit_from(p[5], (("vertex 0", p[0]), ("vertex 2", p[2]),
                                     ("vertex 3", p[3])),
                              ReplayMismatchError, "pentagon apex")
        # [v2 v3 a], and [v0 v1 v2 a] and [v0 a v3 v4] reversed
        cells = q[[2, 3, 5, 0, 5, 2, 1, 0, 4, 3, 5]]
        self._consume(move.component, [TriangleFace(cells[:3])],
                      [Rhombus(cells[3:7]), Rhombus(cells[7:])])

    def _apply_close_rhombus(self, move: CloseRhombusMove) -> None:
        v = self._cycle(move.component, 4)
        self._consume(move.component, [], [Rhombus(v[[0, 3, 2, 1]])])  # reversed

    def _apply_close_triangle(self, move: CloseTriangleMove) -> None:
        v = self._cycle(move.component, 3)
        self._consume(move.component, [TriangleFace(v)], [])

    def _cycle(self, cid: int, expected_len: int) -> np.ndarray:
        """Component ``cid``, which a move consumes and which must have
        ``expected_len`` vertices."""
        v = self.component(cid)
        if len(v) != expected_len:
            raise ReplayMismatchError(
                f"component {cid} has {len(v)} vertices, expected {expected_len}")
        return v

    def _consume(self, cid: int, triangles: list[TriangleFace],
                 rhombi: list[Rhombus]) -> None:
        """Record the cells that fill component ``cid`` and drop it."""
        self.triangles += triangles
        self.rhombi += rhombi
        self.tally[cid]["rhombi"] += len(rhombi)
        del self.components[cid]

    def final_curve(self) -> IntegralCurve:
        return IntegralCurve([self.components[k].copy() for k in sorted(self.components)])

    def stats(self) -> dict:
        """The ledger ``stats`` of the moves applied so far."""
        rows = [{"component": i, "edges": n, "rhombi_used": tally["rhombi"],
                 "budget": component_budget(n)}
                for i, (n, tally) in enumerate(zip(self.edges, self.tallies))]
        total = sum(self.tallies, Counter())
        return {
            "n": sum(self.edges),
            "k": sum(row["rhombi_used"] for row in rows),
            "budget": sum(row["budget"] for row in rows),
            "planarize_moves": total["pivot", "planarize"],
            "pack_moves": total["pivot", "pack"],
            "splits": total["split"],
            "fixes": total["pivot", "fix"],
            "per_component": rows,
        }


class MoveSpec(NamedTuple):
    """One row of the move table.

    ``fields`` lists (JSON key, attribute, codec) with codec one of ``int``,
    ``point`` or ``str``; ``files`` encodes and decodes by it.
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
        _COMPONENT, ("apex", "apex", "point"))),
    "close_rhombus": MoveSpec(CloseRhombusMove, Replayer._apply_close_rhombus, (
        _COMPONENT,)),
    "close_triangle": MoveSpec(CloseTriangleMove, Replayer._apply_close_triangle, (
        _COMPONENT,)),
}


# ---------------------------------------------------------------------------
# dome chains and the ledger validator


@dataclass
class DomeChain:
    """Formal 2-chain realizing a reduction: triangles and pivot rhombus cells.

    ``rhombi``: the boundary rhombi, reversed (see module docstring).
    ``stats``: the ledger stats the replay counts (:meth:`Replayer.stats`).
    """

    triangles: list[TriangleFace] = field(default_factory=list)
    rhombus_cells: list[Rhombus] = field(default_factory=list)
    rhombi: list[Rhombus] = field(default_factory=list)
    stats: dict = field(default_factory=dict)
    # Always empty: shared edges cancel by orientation.  Kept only because
    # the benchmark tracer (bench/spans.py) counts ``len(chain.seams)``.
    seams = ()


# Largest |x / EPS| the int64 segment keys accept; beyond it the cast would wrap.
_GRID_LIMIT = 2.0 ** 62


def _grid_keys(points: np.ndarray) -> np.ndarray:
    """int64 keys ``rint(x / EPS)``: the integers ``int(round(x / EPS))`` gives.

    Raises as ``int()`` would on the first non-finite quotient, and raises
    OverflowError at or beyond 2**62 instead of letting the cast wrap.
    """
    with np.errstate(over="ignore"):
        q = points / EPS
    finite = np.isfinite(q)
    if not finite.all():
        if np.isnan(q.flat[np.argmin(finite)]):
            raise ValueError("cannot convert float NaN to integer")
        raise OverflowError("cannot convert float infinity to integer")
    if q.size and np.abs(q).max() >= _GRID_LIMIT:
        raise OverflowError(f"coordinate beyond the int64 grid of eps = {EPS}")
    return np.rint(q).astype(np.int64)


def _segment_residue(cycles: list, signs: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Net signed multiplicity of every quantized segment, in one sorted pass.

    Row ``r`` of the result is ``[degenerate, a, b]`` (7 int64 columns), with
    ``a < b`` the lexicographically ordered endpoint keys of a segment of a
    cycle; a segment met as ``b -> a`` counts with the opposite sign.  A
    degenerate segment (``a == b``) counts +1 whatever its sign.  Only rows
    with a nonzero count or a degenerate segment are returned, in
    lexicographic order, beside their counts.
    """
    arrays, sizes, row_signs = [], [], []
    for cycle, sign in zip(cycles, signs):
        v = np.asarray(cycle, dtype=float)
        if v.size == 0:
            continue
        if v.ndim != 2 or v.shape[1] != 3:
            raise ValueError(f"cycle of shape {v.shape} is not a list of 3-d points")
        arrays.append(v)
        sizes.append(len(v))
        row_signs.append(sign)
    if not arrays:
        return np.empty((0, 7), dtype=np.int64), np.empty(0, dtype=np.int64)
    a = _grid_keys(np.concatenate(arrays))
    sizes = np.array(sizes)
    ends = np.cumsum(sizes)
    successor = np.arange(1, len(a) + 1)
    successor[ends - 1] = ends - sizes
    b = a[successor]
    differ = a != b
    moving = differ.any(axis=1)
    first = differ.argmax(axis=1)
    rows = np.arange(len(a))
    swap = moving & (a[rows, first] > b[rows, first])
    sign = np.repeat(row_signs, sizes)
    weight = np.where(moving, np.where(swap, -sign, sign), 1)
    table = np.column_stack([~moving, np.where(swap[:, None], b, a),
                             np.where(swap[:, None], a, b)])
    order = np.lexsort(table.T[::-1])
    table, weight = table[order], weight[order]
    starts = np.flatnonzero(np.r_[True, (table[1:] != table[:-1]).any(axis=1)])
    table, counts = table[starts], np.add.reduceat(weight, starts)
    keep = (counts != 0) | (table[:, 0] == 1)
    return table[keep], counts[keep]


def signed_segment_counts(cycles_plus: list[np.ndarray],
                          cycles_minus: list[np.ndarray]) -> dict:
    """Net signed multiplicity of every quantized oriented unit segment.

    Each cycle contributes its consecutive (cyclic) segments; orientation is
    folded into the sign of a lexicographically ordered key ``(a, b)`` of
    endpoint grid points ``int(round(x / EPS))``.  A segment with equal
    endpoints is reported as ``("degenerate", a)``.  Only nonzero and
    degenerate entries are returned, in sorted key order (degenerate last).
    The keys are int64 internally: a non-finite coordinate, or one with
    ``|x| / EPS >= 2**62``, raises ValueError or OverflowError instead of
    wrapping onto another point's key.
    """
    cycles = list(cycles_plus) + list(cycles_minus)
    signs = [1] * len(cycles_plus) + [-1] * len(cycles_minus)
    table, counts = _segment_residue(cycles, signs)
    residue = {}
    for row, count in zip(table.tolist(), counts.tolist()):
        a, b = tuple(row[1:4]), tuple(row[4:])
        residue[("degenerate", a) if row[0] else (a, b)] = count
    return residue


def _residue_listing(residue: dict) -> str:
    """The first five residue entries as coordinates with their counts."""
    def point(key):
        return "(" + ", ".join(f"{x * EPS:.12g}" for x in key) + ")"

    shown = [f"{point(key[1])} degenerate: {count}" if key[0] == "degenerate"
             else f"{point(key[0])} -> {point(key[1])}: {count:+d}"
             for key, count in list(residue.items())[:5]]
    return f" [{', '.join(shown)}]" if shown else ""


def assemble_from_ledger(ledger: CobordismLedger) -> DomeChain:
    """Replay a ledger into a dome chain.

    Every non-degenerate pivot contributes the rhombus cell that replay
    derives for it, and every consuming move the triangles and boundary
    rhombi it derives from the cycle it consumes.  Raises
    :class:`ReplayMismatchError` (or the replay's own error) when the moves
    do not replay.
    """
    chain = DomeChain()
    state = Replayer(ledger.initial)
    for move in ledger.moves:
        cell = state.apply(move)
        if cell is not None:
            chain.rhombus_cells.append(cell)
    chain.triangles, chain.rhombi = state.triangles, state.rhombi
    chain.stats = state.stats()
    final = state.final_curve()
    recorded = ledger.final_curve
    if len(final.components) != len(recorded.components):
        raise ReplayMismatchError("final curve component count mismatch")
    for a, b in zip(final.components, recorded.components):
        if not np.array_equal(a, b):
            raise ReplayMismatchError("final curve does not match replay")
    return chain


@dataclass
class LedgerReport:
    entries: list[tuple[str, bool, str]] = field(default_factory=list)

    def add(self, name: str, passed: bool, detail: str = "") -> None:
        self.entries.append((name, passed, detail))

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.entries)

    def to_obj(self) -> dict:
        return {
            "passed": self.passed,
            "checks": [{"name": n, "passed": ok, "detail": d}
                       for n, ok, d in self.entries],
        }


def _same_json(value, expected) -> bool:
    """``value == expected`` with JSON types compared as well, so ``9.0`` or
    ``true`` does not stand for the integer 9 or 1; lists and objects are
    compared item by item."""
    if type(value) is not type(expected):
        return False
    if isinstance(expected, list):
        return len(value) == len(expected) and all(map(_same_json, value, expected))
    if isinstance(expected, dict):
        return (value.keys() == expected.keys()
                and all(_same_json(value[key], expected[key]) for key in expected))
    return value == expected


def validate_ledger(ledger: CobordismLedger) -> LedgerReport:
    """Check the initial curve, the replay, the chain identity and the budget.

    Every cell is derived on replay, and the replay checks each edge where a
    move creates it (a pivot's target, a split's bridge, a pentagon's apex),
    so once the initial curve is unit every cell is unit, and every consumed
    cycle equals the boundary of its cells, by construction.  Chain
    identity: the boundary of the assembled chain minus the initial curve
    minus the boundary rhombi must have signed multiplicity zero on every
    quantized unit segment; a degenerate pivot whose neighbours straddle a
    grid cell can break it.  A failure names the first few unbalanced
    segments by their endpoints and signed counts, and a coordinate that is
    non-finite or too large for the int64 segment keys fails it with a
    message.  Budget: the replay recomputes the stats (k counts the boundary
    rhombi plus the pivot cells); k and every component's rhombi must stay
    within budget, the stats must record k and budget, and every recorded
    key must equal its replayed value, JSON type included (an integer stat
    written as ``9.0`` or ``true`` differs).  A failing detail names the
    keys that differ.  Failures become report entries, never exceptions.
    """
    report = LedgerReport()
    try:
        ledger.initial.validate()
        report.add("initial_curve", True,
                   f"{ledger.initial.edge_count} unit edges")
    except Exception as exc:
        report.add("initial_curve", False, str(exc))
        return report
    try:
        chain = assemble_from_ledger(ledger)
        report.add("replay", True, f"{len(ledger.moves)} moves")
    except Exception as exc:  # report, never raise
        report.add("replay", False, str(exc))
        return report

    cells_plus = [tri.vertices for tri in chain.triangles]
    cells_plus += [rho.vertices for rho in chain.rhombus_cells]
    # a not-fully-reduced final curve re-enters the balance positively
    cells_plus += [comp for comp in ledger.final_curve.components]
    cycles_minus = [comp for comp in ledger.initial.components]
    cycles_minus += [rho.vertices for rho in chain.rhombi]
    try:
        residue = signed_segment_counts(cells_plus, cycles_minus)
        report.add("chain_identity", not residue,
                   f"{len(residue)} unbalanced segments{_residue_listing(residue)}"
                   if residue else "")
    except (ValueError, OverflowError) as exc:  # off the int64 grid
        report.add("chain_identity", False, str(exc))

    replayed = chain.stats
    k, budget = replayed["k"], replayed["budget"]
    stats = ledger.stats if isinstance(ledger.stats, dict) else {}
    differ = [key for key in ("k", "budget") if key not in stats]
    differ += [key for key, value in stats.items()
               if key not in replayed or not _same_json(value, replayed[key])]
    ok = (k <= budget and not differ
          and all(row["rhombi_used"] <= row["budget"] for row in replayed["per_component"]))
    report.add("budget", ok, f"k={k} budget={budget} stats_k={stats.get('k')}"
               + (f"; stats differ: {', '.join(map(str, differ))}" if differ else ""))
    return report


# ---------------------------------------------------------------------------
# hexagon join (two rhombi sharing a vertex -> one hexagon via two triangles)


def hexagon_join(rho: Rhombus,
                 rho_prime: Rhombus) -> tuple[IntegralCurve, tuple[TriangleFace, TriangleFace]]:
    """Join two unit rhombi sharing their first vertex into a hexagon.

    Preconditions: v1 = v1' and |v2, v2'| = |v4, v4'| = 1.  Returns the
    hexagon [v4 v3 v2 v2' v3' v4'] and the triangles [v1 v2 v2'] and
    [v4 v1 v4'].  With rho oriented as given and rho' reversed, the two
    triangles' boundary equals hexagon + rho - rho' segment for segment.
    """
    a = np.asarray(rho.vertices, dtype=float)
    b = np.asarray(rho_prime.vertices, dtype=float)
    rho.validate()
    rho_prime.validate()
    if dist(a[0], b[0]) > EPS:
        raise PositioningViolatedError("rhombi must share their first vertex")
    if abs(dist(a[1], b[1]) - 1.0) > EPS:
        raise PositioningViolatedError(f"|v2, v2'| = {dist(a[1], b[1])} != 1")
    if abs(dist(a[3], b[3]) - 1.0) > EPS:
        raise PositioningViolatedError(f"|v4, v4'| = {dist(a[3], b[3])} != 1")
    hexagon = IntegralCurve([np.vstack([a[3], a[2], a[1], b[1], b[2], b[3]])])
    hexagon.validate()
    t1 = TriangleFace(np.vstack([a[0], a[1], b[1]]))
    t2 = TriangleFace(np.vstack([a[3], a[0], b[3]]))
    t1.validate()
    t2.validate()
    return hexagon, (t1, t2)
