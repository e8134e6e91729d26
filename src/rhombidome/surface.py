"""Combinatorial surfaces with boundary, dome assembly and ledger validation.

A :class:`GraphSurface` is a 2-complex sitting inside a closed surface: a set
of abstract edges (a multigraph is allowed), oriented triangles, and one
closed boundary walk per complement disk.  Oriented edge references are
encoded as ``+(id + 1)`` / ``-(id + 1)``.

Orientation convention: boundary walks are oriented as seen from the complex
(not from the complement disks), so for a consistently oriented closed
surface the chain  sum(triangle boundaries) - sum(walks)  is zero edge by
edge, and every edge is used by exactly two cell sides overall.  This is the
checkable orientability test used by the certificates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cobordism import (
    CobordismLedger,
    Replayer,
    ReplayMismatchError,
    Rhombus,
    TriangleFace,
    component_budget,
)
from .curve import IntegralCurve
from .geom import DEFAULT_TOL, Tolerance, apex_at_unit_distance, dist

__all__ = [
    "GraphSurface",
    "SamplePolygon",
    "BoundaryMap",
    "DomeChain",
    "LedgerReport",
    "NotBoundaryEdgeError",
    "NotInTriangleError",
    "PositioningViolatedError",
    "UnknownNameError",
    "SurfaceInvariantError",
    "ref_edge",
    "boundary_polygons",
    "collapse",
    "catalog",
    "is_oriented_consistently",
    "assemble_from_ledger",
    "validate_ledger",
    "hexagon_join",
    "signed_segment_counts",
    "quantize_point",
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

    @property
    def edge_pair_count(self) -> int:
        return len(self.edges)

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
                if abs(got - float(self.lengths[eid])) > 1e-9:
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
# boundary polygons


@dataclass
class SamplePolygon:
    """Cyclic edge-length sequence of one boundary component."""

    lengths: np.ndarray

    def validate(self) -> None:
        total = float(np.sum(self.lengths))
        if np.any(2.0 * np.asarray(self.lengths) >= total):
            raise SurfaceInvariantError("polygon violates the nondegeneracy condition")


@dataclass
class BoundaryMap:
    """Per polygon, the signed surface edge each polygon edge maps onto."""

    refs: list[list[int]]


def boundary_polygons(s: GraphSurface) -> tuple[list[SamplePolygon], BoundaryMap]:
    polygons = []
    for walk in s.walks:
        lengths = np.array([float(s.lengths[abs(r) - 1]) for r in walk])
        poly = SamplePolygon(lengths)
        poly.validate()
        polygons.append(poly)
    return polygons, BoundaryMap([list(walk) for walk in s.walks])


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
    walk_top = [-topr(i) for i in reversed(range(k))]
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
    """Named test surfaces with explicit unit-edge coordinates."""
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
# dome chains and the ledger validator


@dataclass
class DomeChain:
    """Formal 2-chain realizing a reduction: triangles and pivot rhombus cells."""

    triangles: list[TriangleFace] = field(default_factory=list)
    rhombus_cells: list[Rhombus] = field(default_factory=list)
    # Always empty: shared edges cancel by orientation.  Kept only because
    # the benchmark tracer (bench/spans.py) counts ``len(chain.seams)``.
    seams = ()


def quantize_point(p: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> tuple[int, int, int]:
    return tuple(int(round(float(x) / tol.geom_eps)) for x in p)


def signed_segment_counts(cycles_plus: list[np.ndarray],
                          cycles_minus: list[np.ndarray],
                          tol: Tolerance = DEFAULT_TOL) -> dict:
    """Net signed multiplicity of every quantized oriented unit segment.

    Each cycle contributes its consecutive (cyclic) segments; orientation is
    folded into the sign of a lexicographically ordered key.
    """
    counts: dict[tuple, int] = {}

    def add(vertices: np.ndarray, sign: int) -> None:
        keys = [quantize_point(p, tol) for p in np.asarray(vertices, dtype=float)]
        m = len(keys)
        for i in range(m):
            a, b = keys[i], keys[(i + 1) % m]
            if a == b:
                counts[("degenerate", a)] = counts.get(("degenerate", a), 0) + 1
                continue
            if a < b:
                key, s = (a, b), sign
            else:
                key, s = (b, a), -sign
            counts[key] = counts.get(key, 0) + s

    for cyc in cycles_plus:
        add(cyc, +1)
    for cyc in cycles_minus:
        add(cyc, -1)
    return {k: v for k, v in counts.items() if v != 0 or k[0] == "degenerate"}


def assemble_from_ledger(ledger: CobordismLedger,
                         tol: Tolerance = DEFAULT_TOL) -> DomeChain:
    """Replay a ledger into a dome chain.

    Every non-degenerate pivot contributes the rhombus cell that replay
    derives for it; pentagon and triangle closures contribute the recorded
    triangle cells, each of which, like each recorded boundary rhombus, must
    be consumed by exactly one move.  Raises :class:`ReplayMismatchError`
    (or the replay's own error) when the moves do not replay.
    """
    chain = DomeChain()
    state = Replayer(ledger.initial, tol)
    for move in ledger.moves:
        cell = state.apply(move)
        if cell is not None:
            chain.rhombus_cells.append(cell)

    if sorted(state.triangle_refs) != list(range(len(ledger.triangles))):
        raise ReplayMismatchError("ledger triangles not in bijection with moves")
    if sorted(state.rhombus_refs) != list(range(len(ledger.final_rhombi))):
        raise ReplayMismatchError("ledger rhombi not in bijection with moves")
    chain.triangles = [ledger.triangles[i] for i in state.triangle_refs]
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


def validate_ledger(ledger: CobordismLedger,
                    tol: Tolerance = DEFAULT_TOL) -> LedgerReport:
    """Check replay soundness, cell metrics, the chain identity and the budget.

    Every cell is checked for unit sides, including the pivot cells that
    replay derives.  Chain identity: the boundary of the assembled chain
    minus the initial curve minus the recorded rhombi must have signed
    multiplicity zero on every quantized unit segment.  Budget: k, the
    recorded boundary rhombi plus the derived pivot cells, must match the
    stats and stay within the budget.  Failures become report entries, never
    exceptions.
    """
    report = LedgerReport()
    try:
        ledger.initial.validate(tol)
        report.add("initial_curve", True,
                   f"{ledger.initial.edge_count} unit edges")
    except Exception as exc:
        report.add("initial_curve", False, str(exc))
        return report
    try:
        chain = assemble_from_ledger(ledger, tol)
        report.add("replay", True, f"{len(ledger.moves)} moves")
    except Exception as exc:  # report, never raise
        report.add("replay", False, str(exc))
        return report

    bad = []
    for i, tri in enumerate(chain.triangles):
        try:
            tri.validate(tol)
        except ValueError as exc:
            bad.append(f"triangle {i}: {exc}")
    for i, rho in enumerate(chain.rhombus_cells):
        try:
            rho.validate(tol)
        except ValueError as exc:
            bad.append(f"pivot rhombus {i}: {exc}")
    for i, rho in enumerate(ledger.final_rhombi):
        try:
            rho.validate(tol)
        except ValueError as exc:
            bad.append(f"final rhombus {i}: {exc}")
    report.add("cells_unit", not bad, "; ".join(bad[:5]))

    cells_plus = [tri.vertices for tri in chain.triangles]
    cells_plus += [rho.vertices for rho in chain.rhombus_cells]
    # a not-fully-reduced final curve re-enters the balance positively
    cells_plus += [comp for comp in ledger.final_curve.components]
    cycles_minus = [comp for comp in ledger.initial.components]
    cycles_minus += [rho.vertices for rho in ledger.final_rhombi]
    try:
        residue = signed_segment_counts(cells_plus, cycles_minus, tol)
        report.add("chain_identity", not residue,
                   f"{len(residue)} unbalanced segments" if residue else "")
    except (ValueError, OverflowError) as exc:  # non-finite coordinates
        report.add("chain_identity", False, str(exc))

    k = len(ledger.final_rhombi) + len(chain.rhombus_cells)
    budget = sum(component_budget(len(c)) for c in ledger.initial.components)
    stats = ledger.stats if isinstance(ledger.stats, dict) else {}
    report.add("budget", k <= budget and _stats_agree(stats, k, budget),
               f"k={k} budget={budget} stats_k={stats.get('k')}")
    return report


def _stats_agree(stats: dict, k: int, budget: int) -> bool:
    """Recorded k and budget match, and every per-component row is in budget."""
    try:
        per_ok = all(row["rhombi_used"] <= row["budget"]
                     for row in stats.get("per_component", []))
    except (KeyError, TypeError):
        return False
    return per_ok and stats.get("k") == k and stats.get("budget") == budget


# ---------------------------------------------------------------------------
# hexagon join (two rhombi sharing a vertex -> one hexagon via two triangles)


def hexagon_join(rho: Rhombus, rho_prime: Rhombus,
                 tol: Tolerance = DEFAULT_TOL) -> tuple[IntegralCurve, tuple[TriangleFace, TriangleFace]]:
    """Join two unit rhombi sharing their first vertex into a hexagon.

    Preconditions: v1 = v1' and |v2, v2'| = |v4, v4'| = 1.  Returns the
    hexagon [v4 v3 v2 v2' v3' v4'] and the triangles [v1 v2 v2'] and
    [v4 v1 v4'].  With rho oriented as given and rho' reversed, the two
    triangles' boundary equals hexagon + rho - rho' segment for segment.
    """
    a = np.asarray(rho.vertices, dtype=float)
    b = np.asarray(rho_prime.vertices, dtype=float)
    rho.validate(tol)
    rho_prime.validate(tol)
    if dist(a[0], b[0]) > tol.geom_eps:
        raise PositioningViolatedError("rhombi must share their first vertex")
    if abs(dist(a[1], b[1]) - 1.0) > tol.geom_eps:
        raise PositioningViolatedError(f"|v2, v2'| = {dist(a[1], b[1])} != 1")
    if abs(dist(a[3], b[3]) - 1.0) > tol.geom_eps:
        raise PositioningViolatedError(f"|v4, v4'| = {dist(a[3], b[3])} != 1")
    hexagon = IntegralCurve([np.vstack([a[3], a[2], a[1], b[1], b[2], b[3]])])
    hexagon.validate(tol)
    t1 = TriangleFace(np.vstack([a[0], a[1], b[1]]))
    t2 = TriangleFace(np.vstack([a[3], a[0], b[3]]))
    t1.validate(tol)
    t2.validate(tol)
    return hexagon, (t1, t2)
