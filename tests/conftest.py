import numpy as np
import pytest

from rhombidome import GraphSurface, IntegralCurve
from rhombidome.geom import EPS, dist
from rhombidome.surface import CobordismLedger, PivotMove, Replayer


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
        v = state.component(move.component)
        n = len(v)
        pos = np.empty(n, dtype=int)
        pos[move.order] = np.arange(n)
        arrangement = list(range(n))
        swapped = True
        while swapped:
            swapped = False
            for j in range(n - 1):
                if pos[arrangement[j]] > pos[arrangement[j + 1]]:
                    target = v[j] + (v[(j + 2) % n] - v[j + 1])
                    if dist(v[j + 1], target) > EPS:
                        pivot = PivotMove(move.component, j + 1, target, "pack")
                        state.apply(pivot)
                        moves.append(pivot)
                    arrangement[j], arrangement[j + 1] = arrangement[j + 1], arrangement[j]
                    swapped = True
    return CobordismLedger(ledger.initial.copy(), moves, ledger.final_curve.copy(),
                           dict(ledger.stats))


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
