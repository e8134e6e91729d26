import json
from collections import Counter

import numpy as np
import pytest
from scipy.optimize import brentq

from conftest import regular_polygon_curve
from rhombidome.cobordism import (
    CobordismLedger, PivotMove, Replayer, Rhombus, reduce_to_rhombi)
from rhombidome.files import ledger_from_obj, ledger_to_obj
from rhombidome.curve import random_integral_curve
from rhombidome.surface import (
    NotBoundaryEdgeError,
    NotInTriangleError,
    PositioningViolatedError,
    UnknownNameError,
    assemble_from_ledger,
    boundary_polygons,
    catalog,
    collapse,
    hexagon_join,
    is_oriented_consistently,
    signed_segment_counts,
    validate_ledger,
)


# ---------------------------------------------------------------------------
# catalog


def test_catalog_triangle_disk_counts():
    s = catalog("triangle_disk")
    assert (s.vertex_count, len(s.edges), len(s.triangles), len(s.walks)) == (3, 3, 1, 1)
    # Euler characteristic of the closed surface: 3 - 3 + 1 + 1 = 2
    assert is_oriented_consistently(s)


def test_catalog_antiprism_counts():
    s = catalog("antiprism_band", k=4)
    assert (s.vertex_count, len(s.edges), len(s.triangles), len(s.walks)) == (8, 16, 8, 2)
    assert s.vertex_count - len(s.edges) + len(s.triangles) + len(s.walks) == 2
    assert is_oriented_consistently(s)
    for k in (3, 5, 6, 9):
        catalog("antiprism_band", k=k)


def test_catalog_pentagon_pants():
    s = catalog("pentagon_pants")
    polygons, bmap = boundary_polygons(s)
    assert sorted(len(p.lengths) for p in polygons) == [4, 4, 5]
    assert is_oriented_consistently(s)
    assert len(bmap.refs) == 3


def test_catalog_three_rhombus_pants():
    s = catalog("three_rhombus_pants")
    polygons, _ = boundary_polygons(s)
    assert [len(p.lengths) for p in polygons] == [4, 4, 4]
    assert len(s.triangles) == 2 and len(s.edges) == 9
    assert is_oriented_consistently(s)


def test_catalog_unknown_name():
    with pytest.raises(UnknownNameError):
        catalog("mystery_surface")


def test_boundary_polygons_antiprism():
    polygons, _ = boundary_polygons(catalog("antiprism_band", k=4))
    assert [len(p.lengths) for p in polygons] == [4, 4]
    for p in polygons:
        p.validate()
        assert np.allclose(p.lengths, 1.0)


# ---------------------------------------------------------------------------
# collapse


def _boundary_ref_of(s, triangle_index):
    tri = s.triangles[triangle_index]
    for ref in tri:
        if any(ref in walk for walk in s.walks):
            return ref
    raise AssertionError("triangle has no boundary edge")


def test_collapse_single_triangle_counts():
    s = catalog("antiprism_band", k=4)
    ref = _boundary_ref_of(s, 0)
    out = collapse(s, 0, ref)
    assert len(out.triangles) == len(s.triangles) - 1
    assert len(out.edges) == len(s.edges) - 1
    assert len(out.walks) == len(s.walks)
    assert out.vertex_count - len(out.edges) + len(out.triangles) + len(out.walks) == 2
    # the rewritten walk gained one edge
    assert sorted(len(w) for w in out.walks) == [4, 5]
    assert is_oriented_consistently(out)


def test_collapse_entire_antiprism():
    s = catalog("antiprism_band", k=4)
    while s.triangles:
        s = collapse(s, 0, _boundary_ref_of(s, 0))
    assert s.triangles == []
    assert [len(w) for w in s.walks] == [8, 8]
    counts = Counter()
    for walk in s.walks:
        for ref in walk:
            counts[ref] += 1
    # triangle-free: every edge appears once with each orientation
    for ref in list(counts):
        assert counts[ref] == 1 and counts[-ref] == 1
    assert is_oriented_consistently(s)


def test_collapse_rejects_interior_edge():
    s = catalog("antiprism_band", k=4)
    tri = s.triangles[0]
    interior = [r for r in tri if not any(r in w for w in s.walks)]
    assert interior
    with pytest.raises(NotBoundaryEdgeError):
        collapse(s, 0, interior[0])


def test_collapse_rejects_foreign_edge():
    s = catalog("antiprism_band", k=4)
    ref = _boundary_ref_of(s, 0)
    with pytest.raises(NotInTriangleError):
        collapse(s, 1, ref)


# ---------------------------------------------------------------------------
# dome chains and the validator


def test_assemble_identity_rhombus(unit_square):
    ledger = reduce_to_rhombi(unit_square)
    chain = assemble_from_ledger(ledger)
    assert chain.triangles == [] and chain.rhombus_cells == []
    residue = signed_segment_counts(
        [], [ledger.initial.components[0], ledger.final_rhombi[0].vertices])
    assert residue == {}


def test_assemble_pentagon_chain(regular_pentagon):
    ledger = reduce_to_rhombi(regular_pentagon)
    chain = assemble_from_ledger(ledger)
    assert len(chain.triangles) == 1
    assert chain.rhombus_cells == []  # no pivots were needed
    assert len(ledger.final_rhombi) == 2
    # the apex spokes shared by the triangle and both rhombi cancel by
    # orientation alone, leaving exactly the pentagon
    residue = signed_segment_counts(
        [chain.triangles[0].vertices],
        [ledger.initial.components[0]] + [r.vertices for r in ledger.final_rhombi])
    assert residue == {}


def test_validator_passes_random_corpus():
    rng = np.random.default_rng(20)
    for _ in range(5):
        n = int(rng.integers(6, 15))
        ledger = reduce_to_rhombi(random_integral_curve(n, rng))
        report = validate_ledger(ledger)
        assert report.passed, report.entries


def test_validator_flags_perturbed_rhombus():
    rng = np.random.default_rng(21)
    ledger = reduce_to_rhombi(random_integral_curve(8, rng))
    ledger.final_rhombi[0].vertices[0][0] += 1e-3
    report = validate_ledger(ledger)
    failed = {name for name, ok, _ in report.entries if not ok}
    assert failed & {"cells_unit", "chain_identity"}


def test_validator_flags_perturbed_triangle():
    rng = np.random.default_rng(22)
    ledger = reduce_to_rhombi(random_integral_curve(9, rng))
    assert ledger.triangles
    ledger.triangles[0].vertices[1][2] += 1e-3
    report = validate_ledger(ledger)
    failed = {name for name, ok, _ in report.entries if not ok}
    assert failed & {"cells_unit", "chain_identity"}


def test_validator_flags_wrong_stats():
    ledger = reduce_to_rhombi(regular_polygon_curve(5))
    ledger.stats["k"] = 99
    report = validate_ledger(ledger)
    assert not report.passed


def test_validator_flags_invalid_initial_curve():
    ledger = reduce_to_rhombi(regular_polygon_curve(5))
    ledger.initial.components[0][0] *= 1.5
    report = validate_ledger(ledger)
    assert not report.passed
    assert report.entries[0][0] == "initial_curve" and not report.entries[0][1]


def test_validator_accepts_partial_ledger():
    # a pivots-only ledger between two curves is a valid equivalence record:
    # its chain balances with the nonempty final curve re-entering positively
    from rhombidome.cobordism import (
        CobordismLedger, Replayer, component_budget, pack, planarize)

    rng = np.random.default_rng(23)
    curve = random_integral_curve(10, rng)
    flat, m1 = planarize(curve)
    packed, m2 = pack(flat)
    moves = m1 + m2
    assert moves
    replay = Replayer(curve)
    k = sum(replay.apply(m) is not None for m in moves)
    ledger = CobordismLedger(
        initial=curve.copy(), moves=list(moves), final_curve=packed.copy(),
        stats={"n": 10, "k": k, "budget": component_budget(10)})
    assert validate_ledger(ledger).passed


@pytest.mark.parametrize("edit, failed", [
    (lambda ledger: setattr(ledger, "stats", None), ["budget"]),
    (lambda ledger: ledger.stats["per_component"][0].update(rhombi_used=None),
     ["budget"]),
    (lambda ledger: ledger.triangles[0].vertices.__setitem__((0, 0), np.nan),
     ["cells_unit", "chain_identity"]),
    (lambda ledger: next(m for m in ledger.moves if isinstance(m, PivotMove))
     .new_point.__setitem__(0, np.nan), ["replay"]),
], ids=["stats_none", "rhombi_used_none", "triangle_nan", "pivot_point_nan"])
def test_validator_reports_instead_of_raising(edit, failed):
    ledger = reduce_to_rhombi(random_integral_curve(9, np.random.default_rng(3)))
    edit(ledger)
    report = validate_ledger(ledger)
    assert [name for name, ok, _ in report.entries if not ok] == failed


def _tamper_ledgers():
    """A fixed n=9 ledger and the pivots-only prefix of it, as JSON documents.

    The prefix stops before the first split, so its final curve is nonempty.
    """
    full = reduce_to_rhombi(random_integral_curve(9, np.random.default_rng(3)))
    state = Replayer(full.initial)
    moves, k = [], 0
    for move in full.moves:
        if not isinstance(move, PivotMove):
            break
        k += state.apply(move) is not None
        moves.append(move)
    prefix = CobordismLedger(initial=full.initial.copy(), moves=moves,
                             final_curve=state.final_curve(),
                             stats={"k": k, "budget": full.stats["budget"]})
    return ledger_to_obj(full), ledger_to_obj(prefix)


def _tamper_edits(full: dict, prefix: dict):
    """Yield (name, document, path, value): set doc[path] to value."""
    for i, move in enumerate(full["moves"]):
        if move["type"] == "pivot":
            yield f"move {i} new", full, ("moves", i, "new", 0), move["new"][0] + 1e-3
    for key in ("triangles", "rhombi"):
        for c, cell in enumerate(full[key]):
            for v, point in enumerate(cell):
                yield f"{key} {c} vertex {v}", full, (key, c, v, 0), point[0] + 1e-3
    point = full["initial"]["components"][0][0]
    yield "initial vertex", full, ("initial", "components", 0, 0, 0), point[0] + 1e-3
    point = prefix["final_curve"]["components"][0][0]
    yield "final vertex", prefix, ("final_curve", "components", 0, 0, 0), point[0] + 1e-3
    for key in ("component", "new_component", "vertex", "rhombi", "triangle"):
        in_use = sorted({x for m in full["moves"] if key in m
                         for x in np.ravel(m[key]).tolist()})
        for i, move in enumerate(full["moves"]):
            slots = [()] if key != "rhombi" else [(0,), (1,)]
            for slot in slots if key in move else []:
                value = move[key][slot[0]] if slot else move[key]
                other = next(x for x in in_use if x != value)
                for bad in (-1, 10 ** 6, other):
                    yield (f"move {i} {key}{list(slot)}={bad}", full,
                           ("moves", i, key) + slot, bad)


def test_validator_tamper_sweep():
    # every single-field edit of a valid ledger must fail the report, and the
    # validator must say so rather than raise
    full, prefix = _tamper_ledgers()
    assert validate_ledger(ledger_from_obj(full)).passed
    assert validate_ledger(ledger_from_obj(prefix)).passed
    missed = []
    count = 0
    for name, doc, path, value in _tamper_edits(full, prefix):
        tampered = json.loads(json.dumps(doc))
        holder = tampered
        for key in path[:-1]:
            holder = holder[key]
        holder[path[-1]] = value
        count += 1
        if validate_ledger(ledger_from_obj(tampered)).passed:
            missed.append(name)
    assert count > 100
    assert missed == []


def test_signed_segment_counts_cancellation():
    tri = np.array([[0, 0, 0], [1, 0, 0], [0.5, np.sqrt(3) / 2, 0.0]])
    assert signed_segment_counts([tri], [tri]) == {}
    reversed_tri = tri[::-1]
    assert signed_segment_counts([tri, reversed_tri], []) == {}
    assert signed_segment_counts([tri], []) != {}


# ---------------------------------------------------------------------------
# hexagon join


def _rotation(axis, theta):
    k = axis / np.linalg.norm(axis)
    skew = np.array([[0, -k[2], k[1]], [k[2], 0, -k[0]], [-k[1], k[0], 0]])
    return np.eye(3) + np.sin(theta) * skew + (1 - np.cos(theta)) * (skew @ skew)


def _joined_pair():
    """Two congruent unit squares sharing v1, rotated about the diagonal so
    that |v2, v2'| = |v4, v4'| = 1.  The angle is solved numerically."""
    u = np.array([1.0, 0.0, 0.0])
    w = np.array([0.0, 1.0, 0.0])
    first = Rhombus(np.vstack([np.zeros(3), u, u + w, w]))
    axis = u + w

    def gap(theta):
        return np.linalg.norm(_rotation(axis, theta) @ u - u) - 1.0

    theta = brentq(gap, 0.1, np.pi - 0.1)
    rot = _rotation(axis, theta)
    second = Rhombus(np.vstack([np.zeros(3), rot @ u, rot @ (u + w), rot @ w]))
    return first, second, theta


def test_hexagon_join_solved_pair():
    first, second, theta = _joined_pair()
    assert theta == pytest.approx(np.pi / 2, abs=1e-9)  # perpendicular half-planes
    hexagon, (t1, t2) = hexagon_join(first, second)
    edges = hexagon.components[0]
    lengths = np.linalg.norm(np.roll(edges, -1, axis=0) - edges, axis=1)
    assert float(np.max(np.abs(lengths - 1.0))) <= 1e-9
    t1.validate()
    t2.validate()
    # the two triangles bound hexagon + rho - rho'
    residue = signed_segment_counts(
        [t1.vertices, t2.vertices],
        [edges, first.vertices, second.reversed().vertices])
    assert residue == {}


def test_hexagon_join_rejects_bad_gap():
    first, second, _ = _joined_pair()
    shifted = Rhombus(second.vertices + np.array([0.0, 0.0, 0.2]))
    with pytest.raises(PositioningViolatedError):
        hexagon_join(first, shifted)


def test_hexagon_join_rejects_coincident_pair():
    first, _, _ = _joined_pair()
    with pytest.raises(PositioningViolatedError):
        hexagon_join(first, Rhombus(first.vertices.copy()))
