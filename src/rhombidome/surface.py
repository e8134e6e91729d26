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

The module also owns the reduction ledger: its moves, the :class:`Replayer`
that applies them and :func:`validate_ledger`, the independent checker.  It
depends on nothing in the producer (:mod:`rhombidome.cobordism`), which
records its moves through this replay.

Points and cells.  A point is a row ``[x, y, z]`` of floats.  The replay
appends every point it creates to one point table, in creation order, and
a point's vertex id is its index there: the initial vertices come first,
component by component, and then each pivot or pack target, split bridge
``z`` and pentagon apex as its move creates it.  A cell -- a unit triangle
or a unit rhombus, possibly non-planar -- is nothing but the ids of its
vertices in cyclic order, an id row: the replay derives each cell as one,
and :class:`DomeChain` holds the table as one (P, 3) array and each kind of
cell as one (m, k) int array.  The chain identity is decided on the ids
alone, exactly: no coordinate is compared in it.

Move semantics (state = components keyed by stable integer ids, each its
cycle of vertex ids, whose points are ``points[ids]``; each point of a move
is a row).  A move records only the decision taken; everything else
follows from the state it is replayed on:

* ``PivotMove``      -- move one vertex to ``new_point``, which must lie at
                        unit distance from both neighbours.  The old point
                        and the emitted cell ``[prev old next new]`` are read
                        off the state; when the neighbours coincide the pivot
                        is degenerate and records that row as a fold, which
                        k does not count.
* ``PackMove``       -- realize ``order``, a permutation of the component's
                        edges, by bubble sort: each adjacent transposition
                        is a pivot of stage ``pack`` that moves vertex j+1 to
                        ``v[j] + (v[j+2] - v[j+1])``, checked and counted like
                        a recorded pivot, unless that point is within EPS of
                        the old one (equal edges swap as a no-op).  No swap is
                        recorded: the order and the state fix every one.
* ``SplitMove``      -- peel ``[v_at .. v_at+3 z]`` (indices cyclic) off a
                        component as component ``new_component``, leaving
                        ``[v_at z v_at+3 .. v_at-1]``, which starts at v_at; the
                        bridge ``z`` must lie at unit distance from v_at and
                        v_at+3.  With ``at`` 0 the pieces are ``[v0 v1 v2 v3 z]``
                        and ``[v0 z v3 v4 ...]``.
* ``PentagonMove``   -- consume a 5-cycle ``[v0 .. v4]`` through its recorded
                        ``apex`` a, which must lie at unit distance from v0,
                        v2 and v3: the triangle ``[v2 v3 a]`` and the boundary
                        rhombi ``[v0 v1 v2 a]`` and ``[v0 a v3 v4]``, reversed.
* ``CloseRhombusMove`` / ``CloseTriangleMove`` -- consume a 4-cycle as the
                        boundary rhombus of its reversal, a 3-cycle as a
                        triangle.

The replay checks every edge a move creates, so once the initial curve is
unit every replayed edge is, and so is every derived cell.  On vertex ids
the chain identity holds move by move: a pivot's row ``[prev old next new]``
(cell or fold) bounds the segments it takes out of the cycle minus those it
puts in, a consumed cycle equals the boundary of its cells, and a split's two
pieces share the bridge segments with opposite orientation, so no seam is
recorded.  ``MOVE_TABLE`` is the one place that maps a move's JSON ``type``
to its class, its fields and its replay step.

Boundary rhombi are reversed so that the assembled 2-chain, folds included,
has boundary equal to (initial curve) + (rhombi).
"""

from __future__ import annotations

import itertools
import math
import numbers
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, ClassVar, NamedTuple

import numpy as np

from .curve import IntegralCurve
from .geom import EPS, apex_at_unit_distance, dist

__all__ = [
    "PivotMove",
    "PackMove",
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
        lengths = np.asarray(self.lengths).tolist()
        # NaN fails; a string or None is no length, and is not parsed as one
        if not all(isinstance(length, numbers.Real) and 0 < length < math.inf
                   for length in lengths):
            raise SurfaceInvariantError("edge lengths must be finite and positive")
        for edge in self.edges:
            try:
                tail, head = edge
            except (TypeError, ValueError):
                raise SurfaceInvariantError(f"edge {edge!r} is not a vertex pair") from None
            for end in (tail, head):
                if not isinstance(end, (int, np.integer)) or not 0 <= end < self.vertex_count:
                    raise SurfaceInvariantError(f"edge endpoint {end!r} names no vertex")
        usage = [0] * n_edges
        for t in self.triangles:
            if len(t) != 3:
                raise SurfaceInvariantError("triangles need exactly 3 edge refs")
            eids = self._cycle_edges(t, "triangle")
            a, b, c = (lengths[eid] for eid in eids)
            if not (a + b > c and b + c > a and c + a > b):
                raise SurfaceInvariantError("triangle inequality violated")
            for eid in eids:
                usage[eid] += 1
        for walk in self.walks:
            if len(walk) < 1:
                raise SurfaceInvariantError("empty boundary walk")
            for eid in self._cycle_edges(walk, "boundary walk"):
                usage[eid] += 1
        if any(count != 2 for count in usage):
            raise SurfaceInvariantError(
                "every edge must be used exactly twice across triangles and walks")
        chi = self.vertex_count - n_edges + len(self.triangles) + len(self.walks)
        if chi != 2 - 2 * self.genus_hat:
            raise SurfaceInvariantError(
                f"Euler characteristic {chi} != {2 - 2 * self.genus_hat}")
        if self.coords is not None:
            if (not isinstance(self.coords, np.ndarray)
                    or self.coords.shape != (self.vertex_count, 3)):
                raise SurfaceInvariantError(f"coords must be a ({self.vertex_count}, 3) array")
            coords = np.asarray(self.coords, dtype=float).tolist()
            for eid, (tail, head) in enumerate(self.edges):
                got = math.dist(coords[tail], coords[head])
                if not abs(got - float(lengths[eid])) <= EPS:  # NaN fails
                    raise SurfaceInvariantError(
                        f"edge {eid} realizes length {got}, expected {lengths[eid]}")

    def _cycle_edges(self, refs, what: str) -> list[int]:
        """Edge ids of the signed references ``refs``, which must name edges
        and close up head to tail; each reference is decoded once."""
        eids, tails, heads = [], [], []
        for r in refs:
            # a float such as 2.5 or 3.0 names no edge, whatever its size
            if not isinstance(r, (int, np.integer)) or not 0 < abs(r) <= len(self.edges):
                raise SurfaceInvariantError(f"{what} edge reference {r} names no edge")
            eid = r - 1 if r > 0 else -r - 1
            tail, head = self.edges[eid]
            eids.append(eid)
            tails.append(tail if r > 0 else head)
            heads.append(head if r > 0 else tail)
        if heads != tails[1:] + tails[:1]:
            raise SurfaceInvariantError(f"{what} is not a closed edge cycle")
        return eids


def is_oriented_consistently(s: GraphSurface) -> bool:
    """True iff triangle boundaries minus walks cancel on every edge."""
    acc = [0] * len(s.edges)
    for cycles, sign in ((s.triangles, 1), (s.walks, -1)):
        for refs in cycles:
            for r in refs:
                if r > 0:
                    acc[r - 1] += sign
                elif r < 0:
                    acc[-r - 1] -= sign
                else:
                    raise ValueError("edge reference 0 is invalid")
    return not any(acc)


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
    apex = apex_at_unit_distance(*penta[[0, 2, 3]].tolist())
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
    The surface is returned unvalidated: each consumer that needs the
    invariants (the certificates, ``rhombidome moduli dims``) calls
    :meth:`GraphSurface.validate` once itself.
    """
    if k is not None and name != "antiprism_band":
        raise UnknownNameError(f"catalog surface {name!r} takes no parameter k")
    if name == "triangle_disk":
        return _triangle_disk()
    if name == "antiprism_band":
        return _antiprism_band(4 if k is None else k)
    if name == "pentagon_pants":
        return _pentagon_pants()
    if name == "three_rhombus_pants":
        return _three_rhombus_pants()
    raise UnknownNameError(f"unknown catalog surface {name!r}")


# ---------------------------------------------------------------------------
# cells and moves


def _check_unit_cycle(v: list[list[float]], what: str, n: int) -> None:
    """Raise ValueError unless ``v``, vertex rows, is a closed n-gon with unit
    sides."""
    if len(v) != n or [*map(len, v)] != [3] * n:
        raise ValueError(f"{what} needs exactly {n} vertices")
    for i in range(n):
        side = math.dist(v[i], v[(i + 1) % n])
        if not abs(side - 1.0) <= EPS:  # NaN fails
            raise ValueError(f"{what} side {i} has length {side}")


# the stages a pivot may record: the three the stats count, and ``pivot`` for
# a lone :func:`rhombidome.cobordism.apply_pivot`
_PIVOT_STAGES = frozenset(("planarize", "pack", "fix", "pivot"))


def _cut(cycle: list, i: int, j: int, new) -> tuple[list, list]:
    """The pieces ``[c_i .. c_j new]`` and ``[c_i new c_j .. c_i-1]`` of the
    cyclic list ``cycle``, with j = i + 3 taken cyclically."""
    if j > i:
        return cycle[i:j + 1] + [new], [cycle[i], new] + cycle[j:] + cycle[:i]
    return cycle[i:] + cycle[:j + 1] + [new], [cycle[i], new] + cycle[j:i]


def _off_unit(point: list, ends: tuple) -> tuple[int, float] | None:
    """``(k, distance)`` for the first ``ends[k]`` not at unit distance from
    ``point``, or None when every end is."""
    for k, end in enumerate(ends):
        side = math.dist(end, point)
        if not abs(side - 1.0) <= EPS:  # NaN fails
            return k, side
    return None


def _pivot_derives_cell(prev: list, nxt: list, new: list) -> bool:
    """Whether a pivot to ``new`` between ``prev`` and ``nxt`` derives a cell,
    which it does unless the neighbours coincide and it derives a fold;
    raises unless ``new`` is at unit distance from both neighbours."""
    off = _off_unit(new, (prev, nxt))
    if off:
        raise NotOnPivotCircleError(f"pivot target at distance {off[1]} from a neighbour")
    return math.dist(prev, nxt) > EPS


@dataclass
class PivotMove:
    kind: ClassVar[str] = "pivot"
    component: int
    vertex: int
    new_point: list[float]
    stage: str = "pivot"


@dataclass
class PackMove:
    kind: ClassVar[str] = "pack"
    component: int
    order: list[int]


@dataclass
class SplitMove:
    kind: ClassVar[str] = "split"
    component: int
    new_component: int
    z: list[float]
    at: int = 0


@dataclass
class PentagonMove:
    kind: ClassVar[str] = "pentagon"
    component: int
    apex: list[float]


@dataclass
class CloseRhombusMove:
    kind: ClassVar[str] = "close_rhombus"
    component: int


@dataclass
class CloseTriangleMove:
    kind: ClassVar[str] = "close_triangle"
    component: int


Move = PivotMove | PackMove | SplitMove | PentagonMove | CloseRhombusMove | CloseTriangleMove


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

    Every point the replay creates is appended once to the point table
    ``points``, in creation order: the initial vertices, component by
    component, then each pivot and pack target, split bridge and pentagon
    apex as its move is applied.  A point is a row, a float list ``[x, y,
    z]``, and a move's point is taken as given; its vertex id is its index
    in ``points``.  The component state is one id cycle per component,
    which :meth:`component` returns live; the component's points are
    ``points[ids]``, and :meth:`rows` returns them as a fresh list.  A move
    edits or replaces id cycles and never edits a row in place, so points
    and moves may share rows.

    Besides the state it keeps ``moves``, every move applied, in order, and
    the cells the moves derive, in move order, as id rows (lists of vertex
    ids): the pivot and pack cells ``rhombus_cells``, the rows of degenerate
    pivots ``folds``, and from the consuming moves ``triangles`` and the
    boundary ``rhombi``.  It also counts, per input component, the rhombi
    the moves add to k, the pivots by stage and the splits; a split's new
    piece counts toward its parent's input component.  :meth:`stats`
    reports these counts as a ledger's ``stats``.
    """

    def __init__(self, initial: IntegralCurve):
        self.points: list[list[float]] = []
        self.components: dict[int, list[int]] = {}
        for cid, c in enumerate(initial.components):
            rows = np.asarray(c, dtype=float).tolist()
            self.components[cid] = list(range(len(self.points), len(self.points) + len(rows)))
            self.points += rows
        self.edges = [len(c) for c in self.components.values()]
        self.moves: list[Move] = []
        self.rhombus_cells: list[list[int]] = []
        self.folds: list[list[int]] = []
        self.triangles: list[list[int]] = []
        self.rhombi: list[list[int]] = []
        # one Counter per input component; ``tally`` maps every component id,
        # split pieces included, to the Counter of its input component
        self.tallies = [Counter() for _ in self.edges]
        self.tally: dict[int, Counter] = dict(enumerate(self.tallies))

    def component(self, cid: int) -> list[int]:
        try:
            return self.components[cid]
        except KeyError:
            raise ReplayMismatchError(f"component {cid} does not exist") from None

    def rows(self, cid: int) -> list[list[float]]:
        """A fresh list of the points of component ``cid``, ``points[ids]``."""
        return list(map(self.points.__getitem__, self.component(cid)))

    def apply(self, move: Move) -> None:
        """Apply one move, and keep the cells it derives.  A move that does not
        replay raises and leaves the state as it was."""
        spec = MOVE_TABLE.get(getattr(move, "kind", None))
        if spec is None:
            raise ReplayMismatchError(f"unknown move type {type(move)!r}")
        spec.apply(self, move)
        self.moves.append(move)

    def _count_pivots(self, cid: int, stage: str, cells: list[list[int]],
                      folds: list[list[int]]) -> None:
        tally = self.tally[cid]
        tally["pivot", stage] += len(cells) + len(folds)
        tally["rhombi"] += len(cells)
        self.rhombus_cells += cells
        self.folds += folds

    def _apply_pivot(self, move: PivotMove) -> None:
        ids = self.component(move.component)
        n, i = len(ids), move.vertex
        if not 0 <= i < n:
            raise ReplayMismatchError("pivot vertex out of range")
        if move.stage not in _PIVOT_STAGES:
            raise ReplayMismatchError(f"unknown pivot stage {move.stage!r}")
        new, j, points = move.new_point, (i + 1) % n, self.points
        cells, folds, row = [], [], [ids[i - 1], ids[i], ids[j], len(points)]
        (cells if _pivot_derives_cell(points[row[0]], points[row[2]], new) else folds).append(row)
        ids[i] = len(points)
        points.append(new)
        self._count_pivots(move.component, move.stage, cells, folds)

    def _apply_pack(self, move: PackMove) -> None:
        ids = self.component(move.component)
        n = len(ids)
        order = move.order
        if len(order) != n or sorted(order) != list(range(n)):
            raise ReplayMismatchError(f"pack order is not a permutation of range({n})")
        # rank[j]: the position in ``order`` of the edge now at slot j
        rank = [0] * n
        for position, edge in enumerate(order):
            rank[edge] = position
        # sort copies, and add the new targets to the table at the end: a
        # swap that fails leaves the state as it was
        pts, vids, fresh = self.rows(move.component), ids[:], []
        cells, folds = [], []
        swapped = True
        while swapped:
            swapped = False
            for j in range(n - 1):
                if rank[j] > rank[j + 1]:
                    rank[j], rank[j + 1] = rank[j + 1], rank[j]
                    swapped = True
                    k = (j + 2) % n
                    prev, old, nxt = pts[j], pts[j + 1], pts[k]
                    new = [a + (c - b) for a, b, c in zip(prev, old, nxt)]
                    if math.dist(old, new) <= EPS:  # equal edges: a no-op
                        continue
                    new_id = len(self.points) + len(fresh)
                    (cells if _pivot_derives_cell(prev, nxt, new) else folds).append(
                        [vids[j], vids[j + 1], vids[k], new_id])
                    fresh.append(new)
                    pts[j + 1], vids[j + 1] = new, new_id
        self.points += fresh
        self._count_pivots(move.component, "pack", cells, folds)
        ids[:] = vids

    def _apply_split(self, move: SplitMove) -> None:
        ids = self.component(move.component)
        n, i = len(ids), move.at
        if n < 6:
            raise ReplayMismatchError("split needs a component with > 5 edges")
        if move.new_component in self.components:
            raise ReplayMismatchError("split target id already in use")
        if not 0 <= i < n:
            raise ReplayMismatchError(f"split position {i} out of range({n})")
        j, z = (i + 3) % n, move.z
        off = _off_unit(z, (self.points[ids[i]], self.points[ids[j]]))
        if off:
            raise ReplayMismatchError(
                f"split bridge at distance {off[1]} from vertex {(i, j)[off[0]]}")
        z_id = len(self.points)
        self.points.append(z)
        self.components[move.new_component], self.components[move.component] = _cut(
            ids, i, j, z_id)
        self.tally[move.new_component] = self.tally[move.component]
        self.tally[move.component]["split"] += 1

    def _apply_pentagon(self, move: PentagonMove) -> None:
        w0, w1, w2, w3, w4 = self._cycle(move.component, 5)
        a = move.apex
        off = _off_unit(a, (self.points[w0], self.points[w2], self.points[w3]))
        if off:
            raise ReplayMismatchError(
                f"pentagon apex at distance {off[1]} from vertex {(0, 2, 3)[off[0]]}")
        x = len(self.points)
        self.points.append(a)
        # [v2 v3 a], and [v0 v1 v2 a] and [v0 a v3 v4] reversed
        self._consume(move.component, [[w2, w3, x]], [[w0, x, w2, w1], [w0, w4, w3, x]])

    def _apply_close_rhombus(self, move: CloseRhombusMove) -> None:
        w = self._cycle(move.component, 4)
        self._consume(move.component, [], [[w[0], w[3], w[2], w[1]]])  # reversed

    def _apply_close_triangle(self, move: CloseTriangleMove) -> None:
        self._consume(move.component, [self._cycle(move.component, 3)], [])

    def _cycle(self, cid: int, expected_len: int) -> list[int]:
        """The vertex ids of component ``cid``, which a move consumes and
        which must have ``expected_len`` vertices."""
        ids = self.component(cid)
        if len(ids) != expected_len:
            raise ReplayMismatchError(
                f"component {cid} has {len(ids)} vertices, expected {expected_len}")
        return ids

    def _consume(self, cid: int, triangles: list[list[int]],
                 rhombi: list[list[int]]) -> None:
        """Record the cells, as id rows, that fill component ``cid`` and drop
        it."""
        self.triangles += triangles
        self.rhombi += rhombi
        self.tally[cid]["rhombi"] += len(rhombi)
        del self.components[cid]

    def final_curve(self) -> IntegralCurve:
        return IntegralCurve([np.array(self.rows(k)) for k in sorted(self.components)])

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

    ``fields`` lists (JSON key, attribute, codec) in the order of the
    class's fields, with codec one of ``int``, ``ints``, ``point`` or
    ``str``; ``files`` encodes by it and decodes each move positionally.
    """

    cls: type
    apply: Callable[[Replayer, Move], None]
    fields: tuple[tuple[str, str, str], ...]


_COMPONENT = ("component", "component", "int")

# JSON ``type`` -> move class, replay step and fields.
MOVE_TABLE: dict[str, MoveSpec] = {
    "pivot": MoveSpec(PivotMove, Replayer._apply_pivot, (
        _COMPONENT, ("vertex", "vertex", "int"), ("new", "new_point", "point"),
        ("stage", "stage", "str"))),
    "pack": MoveSpec(PackMove, Replayer._apply_pack, (
        _COMPONENT, ("order", "order", "ints"))),
    "split": MoveSpec(SplitMove, Replayer._apply_split, (
        _COMPONENT, ("new_component", "new_component", "int"), ("z", "z", "point"),
        ("at", "at", "int"))),
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

    ``points`` is the replay's point table as one (P, 3) float array (see
    :class:`Replayer`), and each kind of cell is one int array of id rows,
    cells in move order: ``triangle_ids`` (T, 3), the pivot and pack cells
    ``rhombus_cell_ids`` (R, 4), the boundary ``rhombi_ids`` (B, 4),
    reversed (see module docstring), and ``fold_ids`` (F, 4), the rows of
    degenerate pivots.  Folds balance the chain identity on ids; they are
    no rhombi, so k, the cell arrays below and every export leave them out.
    ``initial_ids`` and ``final_ids`` hold one id cycle per component of the
    initial and the final curve.
    ``triangles``, ``rhombus_cells`` and ``rhombi`` are the cells as
    (m, k, 3) float arrays of vertex rows, ``points[ids]``; a kind with no
    cell has shape (0, k, 3).  ``stats``: the ledger stats the replay
    counts (:meth:`Replayer.stats`).
    """

    points: np.ndarray
    triangle_ids: np.ndarray
    rhombus_cell_ids: np.ndarray
    rhombi_ids: np.ndarray
    fold_ids: np.ndarray
    initial_ids: list[np.ndarray]
    final_ids: list[list[int]]
    stats: dict
    # Always empty: shared edges cancel by orientation.  Kept only because
    # the benchmark tracer (bench/spans.py) counts ``len(chain.seams)``.
    seams = ()

    @property
    def triangles(self) -> np.ndarray:
        return self.points[self.triangle_ids]

    @property
    def rhombus_cells(self) -> np.ndarray:
        return self.points[self.rhombus_cell_ids]

    @property
    def rhombi(self) -> np.ndarray:
        return self.points[self.rhombi_ids]


def signed_segment_counts(cycles_plus: list, cycles_minus: list) -> dict:
    """Net signed multiplicity of every oriented segment between vertex ids.

    Each cycle entry is one (k,) id cycle or an (m, k) stack of cycles, such
    as one kind of :class:`DomeChain` cell; each cycle contributes its
    consecutive (cyclic) segments, +1 on the plus side and -1 on the minus
    side.  Orientation is folded into the sign of a key ``(a, b)`` with
    ``a < b``, so a segment from b to a counts -1 there; a segment from an
    id to itself is its own reversal and counts nothing.  Only nonzero
    entries are returned, in sorted key order.
    """
    stacks, signs = [], []
    for sign, cycles in ((True, cycles_plus), (False, cycles_minus)):
        for cycle in cycles:
            ids = np.asarray(cycle, dtype=np.intp)
            if ids.size:
                stacks.append(ids.reshape(-1, ids.shape[-1]))
                signs.append(sign)
    if not stacks:
        return {}
    tail = np.concatenate([stack.ravel() for stack in stacks])
    # each vertex's successor on its cycle: the next one, or the cycle's first
    successor, start = np.arange(1, len(tail) + 1), 0
    for stack in stacks:
        m, k = stack.shape
        successor[start + k - 1:start + m * k:k] -= k
        start += m * k
    head = tail[successor]
    plus = np.repeat(signs, [stack.size for stack in stacks])
    # segment codes lo * d + hi, each sorted with its sign in the lowest bit
    lo, hi, d = np.minimum(tail, head), np.maximum(tail, head), int(tail.max()) + 1
    code = np.sort((2 * (lo * d + hi) + ((tail < head) == plus))[lo != hi])
    if not code.size:
        return {}
    starts = np.flatnonzero(np.concatenate(([True], code[1:] >> 1 != code[:-1] >> 1)))
    counts = np.add.reduceat(2 * (code & 1) - 1, starts)
    keep = counts != 0
    return {(c // d, c % d): count
            for c, count in zip((code[starts] >> 1)[keep].tolist(), counts[keep].tolist())}


def _residue_listing(residue: dict, points: np.ndarray) -> str:
    """The first five residue entries as coordinates with their counts."""
    def point(i):
        return "(" + ", ".join(f"{x:.12g}" for x in points[i].tolist()) + ")"

    shown = [f"{point(a)} -> {point(b)}: {count:+d}"
             for (a, b), count in list(residue.items())[:5]]
    return f" [{', '.join(shown)}]" if shown else ""


def _array(rows: list, k: int, dtype: type) -> np.ndarray:
    """Rows of k numbers each as one (len(rows), k) array of ``dtype``."""
    return np.fromiter(itertools.chain.from_iterable(rows), dtype, len(rows) * k).reshape(-1, k)


def assemble_from_ledger(ledger: CobordismLedger) -> DomeChain:
    """Replay a ledger into a dome chain.

    Every pivot, recorded or swapped by a pack, contributes the row that
    replay derives for it, a rhombus cell or, when degenerate, a fold, and
    every consuming move the triangles and boundary rhombi it derives from
    the cycle it consumes.  Raises :class:`ReplayMismatchError` (or the
    replay's own error) when the moves do not replay.
    """
    state = Replayer(ledger.initial)
    for move in ledger.moves:
        state.apply(move)
    final = state.final_curve()
    recorded = ledger.final_curve
    if len(final.components) != len(recorded.components):
        raise ReplayMismatchError("final curve component count mismatch")
    for a, b in zip(final.components, recorded.components):
        if not np.array_equal(a, b):
            raise ReplayMismatchError("final curve does not match replay")
    # the initial vertices are the first points, component by component
    initial_ids = np.split(np.arange(sum(state.edges)), np.cumsum(state.edges)[:-1])
    return DomeChain(points=_array(state.points, 3, float),
                     triangle_ids=_array(state.triangles, 3, np.intp),
                     rhombus_cell_ids=_array(state.rhombus_cells, 4, np.intp),
                     rhombi_ids=_array(state.rhombi, 4, np.intp),
                     fold_ids=_array(state.folds, 4, np.intp),
                     initial_ids=initial_ids,
                     final_ids=[state.components[cid] for cid in sorted(state.components)],
                     stats=state.stats())


@dataclass
class LedgerReport:
    """The checks' entries, and the chain the replay assembled (None when the
    replay did not run or failed)."""

    entries: list[tuple[str, bool, str]] = field(default_factory=list)
    chain: DomeChain | None = field(default=None, repr=False, compare=False)

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
    move creates it (a pivot's or pack swap's target, a split's bridge, a
    pentagon's apex), so once the initial curve is unit every cell is unit,
    and every consumed cycle equals the boundary of its cells, by
    construction.  Chain identity: the boundary of the assembled chain,
    folds included, minus the initial curve minus the boundary rhombi must
    have signed multiplicity zero on every segment between vertex ids.  A
    failure names the first few unbalanced segments by their endpoints and
    signed counts.  Budget: the replay recomputes the stats (k counts the
    boundary rhombi plus the pivot cells); k and every component's rhombi
    must stay within budget, the stats must record k and budget, and every
    recorded key must equal its replayed value, JSON type included (an
    integer stat written as ``9.0`` or ``true`` differs).  A failing detail
    names the keys that differ.  Failures become report entries, never
    exceptions.  The report keeps the chain the replay assembled, so a
    caller that exports it does not replay the ledger again.
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
        chain = report.chain = assemble_from_ledger(ledger)
        report.add("replay", True, f"{len(ledger.moves)} moves")
    except Exception as exc:  # report, never raise
        report.add("replay", False, str(exc))
        return report

    # a not-fully-reduced final curve re-enters the balance positively
    residue = signed_segment_counts(
        [chain.triangle_ids, chain.rhombus_cell_ids, chain.fold_ids, *chain.final_ids],
        [*chain.initial_ids, chain.rhombi_ids])
    report.add("chain_identity", not residue,
               f"{len(residue)} unbalanced segments{_residue_listing(residue, chain.points)}"
               if residue else "")

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


def hexagon_join(rho: np.ndarray,
                 rho_prime: np.ndarray) -> tuple[IntegralCurve, tuple[np.ndarray, np.ndarray]]:
    """Join two unit rhombi, (4, 3) vertex rows sharing their first vertex,
    into a hexagon.

    Preconditions: v1 = v1' and |v2, v2'| = |v4, v4'| = 1.  Returns the
    hexagon [v4 v3 v2 v2' v3' v4'] and the (3, 3) triangles [v1 v2 v2'] and
    [v4 v1 v4'].  With rho oriented as given and rho' reversed, the two
    triangles' boundary equals hexagon + rho - rho' segment for segment.
    """
    a = np.asarray(rho, dtype=float)
    b = np.asarray(rho_prime, dtype=float)
    _check_unit_cycle(a, "rhombus", 4)
    _check_unit_cycle(b, "rhombus", 4)
    if dist(a[0], b[0]) > EPS:
        raise PositioningViolatedError("rhombi must share their first vertex")
    if abs(dist(a[1], b[1]) - 1.0) > EPS:
        raise PositioningViolatedError(f"|v2, v2'| = {dist(a[1], b[1])} != 1")
    if abs(dist(a[3], b[3]) - 1.0) > EPS:
        raise PositioningViolatedError(f"|v4, v4'| = {dist(a[3], b[3])} != 1")
    hexagon = IntegralCurve([np.vstack([a[3], a[2], a[1], b[1], b[2], b[3]])])
    hexagon.validate()
    t1 = np.vstack([a[0], a[1], b[1]])
    t2 = np.vstack([a[3], a[0], b[3]])
    _check_unit_cycle(t1, "triangle", 3)
    _check_unit_cycle(t2, "triangle", 3)
    return hexagon, (t1, t2)
