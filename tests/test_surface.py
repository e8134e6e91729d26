import json
import re
from collections import Counter

import numpy as np
import pytest
from scipy.optimize import brentq

from conftest import regular_polygon_curve
from rhombidome import surface
from rhombidome.cobordism import reduce_to_rhombi
from rhombidome.files import ledger_from_obj, ledger_to_obj
from rhombidome.curve import IntegralCurve, random_integral_curve
from rhombidome.geom import EPS
from rhombidome.surface import (
    CloseRhombusMove,
    CobordismLedger,
    NotBoundaryEdgeError,
    NotInTriangleError,
    PivotMove,
    PositioningViolatedError,
    Replayer,
    ReplayMismatchError,
    Rhombus,
    UnknownNameError,
    assemble_from_ledger,
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
    assert sorted(len(walk) for walk in s.walks) == [4, 4, 5]
    assert is_oriented_consistently(s)


def test_catalog_three_rhombus_pants():
    s = catalog("three_rhombus_pants")
    assert [len(walk) for walk in s.walks] == [4, 4, 4]
    assert len(s.triangles) == 2 and len(s.edges) == 9
    assert is_oriented_consistently(s)


def test_catalog_unknown_name():
    with pytest.raises(UnknownNameError):
        catalog("mystery_surface")
    for name in ("triangle_disk", "pentagon_pants", "three_rhombus_pants"):
        with pytest.raises(UnknownNameError, match="takes no parameter k"):
            catalog(name, k=4)


def test_boundary_polygons_antiprism():
    s = catalog("antiprism_band", k=4)
    assert [len(walk) for walk in s.walks] == [4, 4]
    assert np.all(s.lengths == 1.0)


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
        [], [ledger.initial.components[0], chain.rhombi[0].vertices])
    assert residue == {}


def test_assemble_pentagon_chain(regular_pentagon):
    ledger = reduce_to_rhombi(regular_pentagon)
    chain = assemble_from_ledger(ledger)
    assert len(chain.triangles) == 1
    assert chain.rhombus_cells == []  # no pivots were needed
    assert len(chain.rhombi) == 2
    # the apex spokes shared by the triangle and both rhombi cancel by
    # orientation alone, leaving exactly the pentagon
    residue = signed_segment_counts(
        [chain.triangles[0].vertices],
        [ledger.initial.components[0]] + [r.vertices for r in chain.rhombi])
    assert residue == {}


def test_validator_passes_random_corpus():
    rng = np.random.default_rng(20)
    for _ in range(5):
        n = int(rng.integers(6, 15))
        ledger = reduce_to_rhombi(random_integral_curve(n, rng))
        report = validate_ledger(ledger)
        assert report.passed, report.entries


def _first_pentagon(ledger):
    """The first pentagon move and the 5-cycle it consumes."""
    state = Replayer(ledger.initial)
    for move in ledger.moves:
        if move.kind == "pentagon":
            return move, state.component(move.component).copy()
        state.apply(move)


def _replay_failure(ledger) -> str:
    report = validate_ledger(ledger)
    assert [(name, ok) for name, ok, _ in report.entries] == [
        ("initial_curve", True), ("replay", False)]
    return report.entries[-1][2]


def test_validator_flags_perturbed_rhombus():
    # the apex is a vertex of both boundary rhombi; pushed away from v0 it
    # breaks their shared side, and the replay names the vertex
    ledger = reduce_to_rhombi(random_integral_curve(8, np.random.default_rng(21)))
    move, v = _first_pentagon(ledger)
    move.apex = move.apex + 1e-3 * (move.apex - v[0])
    assert re.fullmatch(r"pentagon apex at distance 1\.00\d+ from vertex 0",
                        _replay_failure(ledger))


def test_validator_flags_perturbed_triangle():
    # turned on its unit sphere about v0, the apex stays a rhombus vertex but
    # leaves the triangle [v2 v3 a]: the replay names vertex 2
    ledger = reduce_to_rhombi(random_integral_curve(9, np.random.default_rng(22)))
    move, v = _first_pentagon(ledger)
    moved = move.apex - v[0] + 1e-3 * (move.apex - v[2])
    move.apex = v[0] + moved / np.linalg.norm(moved)
    assert _replay_failure(ledger).endswith(" from vertex 2")


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
    from rhombidome.cobordism import pack, planarize
    from rhombidome.surface import component_budget

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
    (lambda ledger: _first_pentagon(ledger)[0].apex.__setitem__(0, np.nan), ["replay"]),
    (lambda ledger: next(m for m in ledger.moves if isinstance(m, PivotMove))
     .new_point.__setitem__(0, np.nan), ["replay"]),
    (lambda ledger: _square_off_grid(ledger), ["chain_identity"]),
    (lambda ledger: _first_pentagon(ledger)[0].apex.__setitem__(2, np.inf), ["replay"]),
], ids=["stats_none", "rhombi_used_none", "apex_nan", "pivot_point_nan",
        "rhombus_off_grid", "apex_inf"])
def test_validator_reports_instead_of_raising(edit, failed):
    ledger = reduce_to_rhombi(random_integral_curve(9, np.random.default_rng(3)))
    edit(ledger)
    report = validate_ledger(ledger)
    assert [name for name, ok, _ in report.entries if not ok] == failed


def _square_off_grid(ledger):
    """Make ``ledger`` close a unit square at x = 1e10: its sides are exactly
    unit, but its derived rhombus lies beyond the int64 grid of eps = 1e-9."""
    square = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0.0]]) + [1e10, 0, 0]
    ledger.initial, ledger.final_curve = IntegralCurve([square]), IntegralCurve()
    ledger.moves = [CloseRhombusMove(0)]
    ledger.stats = assemble_from_ledger(ledger).stats


def test_validator_flags_component_over_budget():
    # a square pivoted before it closes uses two rhombi against its budget
    # of one; the other component's slack keeps k within the total budget
    square = np.array([[0.0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]])
    loop = random_integral_curve(9, np.random.default_rng(3)).components[0]
    ledger = reduce_to_rhombi(IntegralCurve([square, loop + np.array([5.0, 0, 0])]))
    new = np.array([0.5, 0.5, np.sqrt(0.5)])
    ledger.moves.insert(0, PivotMove(0, 1, new, "pivot"))
    ledger.stats = assemble_from_ledger(ledger).stats
    rows = ledger.stats["per_component"]
    assert rows[0]["rhombi_used"] > rows[0]["budget"]
    assert ledger.stats["k"] <= ledger.stats["budget"]
    report = validate_ledger(ledger)
    assert [name for name, ok, _ in report.entries if not ok] == ["budget"]


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


def _rotated_bridges(doc: dict, theta: float = 0.3):
    """Yield (move index, z) for each split of ``doc``, with z turned by
    ``theta`` about the axis through the split's vertices 0 and 3: still at
    unit distance from both, so the replay accepts it."""
    ledger = ledger_from_obj(doc)
    state = Replayer(ledger.initial)
    for i, move in enumerate(ledger.moves):
        if move.kind == "split":
            v0, v3 = state.component(move.component)[[0, 3]]
            yield i, (v0 + _rotation(v3 - v0, theta) @ (move.z - v0)).tolist()
        state.apply(move)


def _tamper_edits(full: dict, prefix: dict):
    """Yield (name, document, path, value): set doc[path] to value."""
    for i, move in enumerate(full["moves"]):
        if move["type"] == "pivot":
            yield f"move {i} new", full, ("moves", i, "new", 0), move["new"][0] + 1e-3
        if move["type"] == "split":
            yield f"move {i} z", full, ("moves", i, "z", 0), move["z"][0] + 1e-3
        if move["type"] == "pentagon":
            for c, x in enumerate(move["apex"]):
                yield f"move {i} apex[{c}]", full, ("moves", i, "apex", c), x + 1e-3
    point = full["initial"]["components"][0][0]
    yield "initial vertex", full, ("initial", "components", 0, 0, 0), point[0] + 1e-3
    point = prefix["final_curve"]["components"][0][0]
    yield "final vertex", prefix, ("final_curve", "components", 0, 0, 0), point[0] + 1e-3
    for key in ("component", "new_component", "vertex"):
        in_use = sorted({m[key] for m in full["moves"] if key in m})
        for i, move in enumerate(full["moves"]):
            if key in move:
                other = next(x for x in in_use if x != move[key])
                for bad in (-1, 10 ** 6, other):
                    yield f"move {i} {key}={bad}", full, ("moves", i, key), bad
    yield from _stats_edits(full)


def test_rotated_bridge_is_another_valid_reduction():
    # a bridge turned on its unit circle stays at unit distance from vertices
    # 0 and 3, and every cell that touches it is derived from it: the edited
    # ledger is a different reduction, with different boundary rhombi, and it
    # holds as well
    full, _ = _tamper_ledgers()
    before = assemble_from_ledger(ledger_from_obj(full)).rhombi
    count = 0
    for i, z in _rotated_bridges(full):
        ledger = ledger_from_obj(_tampered(full, ("moves", i, "z"), z))
        assert validate_ledger(ledger).passed
        after = assemble_from_ledger(ledger).rhombi
        assert not all(np.array_equal(a.vertices, b.vertices) for a, b in zip(before, after))
        count += 1
    assert count == full["stats"]["splits"] > 0


def _stats_edits(full: dict):
    """Each stats counter, each field of the first per-component row, and
    one pivot's stage: the edits only the recomputed stats can catch."""
    stats = full["stats"]
    for key, value in stats.items():
        if key != "per_component":
            yield f"stats {key}", full, ("stats", key), value + 1
    for key, value in stats["per_component"][0].items():
        yield (f"stats per_component[0] {key}", full,
               ("stats", "per_component", 0, key), value + 1)
    i, move = next((i, m) for i, m in enumerate(full["moves"]) if m["type"] == "pivot")
    stage = "pack" if move["stage"] != "pack" else "planarize"
    yield f"move {i} stage={stage}", full, ("moves", i, "stage"), stage


def _tampered(doc: dict, path: tuple, value) -> dict:
    tampered = json.loads(json.dumps(doc))
    holder = tampered
    for key in path[:-1]:
        holder = holder[key]
    holder[path[-1]] = value
    return tampered


def test_validator_tamper_sweep():
    # every single-field edit of a valid ledger must fail the report, and the
    # validator must say so rather than raise
    full, prefix = _tamper_ledgers()
    assert validate_ledger(ledger_from_obj(full)).passed
    assert validate_ledger(ledger_from_obj(prefix)).passed
    missed = []
    count = 0
    for name, doc, path, value in _tamper_edits(full, prefix):
        count += 1
        if validate_ledger(ledger_from_obj(_tampered(doc, path, value))).passed:
            missed.append(name)
    assert count > 100
    assert missed == []


def test_validator_stats_edits_fail_budget_only():
    # the stats are recomputed from the replay, so a stats edit or a renamed
    # stage fails the budget entry alone, and the detail names the stats key
    full, _ = _tamper_ledgers()
    names = []
    for name, doc, path, value in _stats_edits(full):
        report = validate_ledger(ledger_from_obj(_tampered(doc, path, value)))
        failed = [(entry, detail) for entry, ok, detail in report.entries if not ok]
        assert [entry for entry, _ in failed] == ["budget"], name
        names.append(name)
        if path[0] == "stats":
            assert failed[0][1].endswith(f"; stats differ: {path[1]}"), name
    assert len(names) == 7 + 4 + 1


@pytest.mark.parametrize("path, retype", [
    (("stats", "k"), float),
    (("stats", "fixes"), bool),
    (("stats", "per_component", 0, "component"), bool),
    (("stats", "per_component", 0, "rhombi_used"), float),
], ids=["k_float", "fixes_true", "row_component_false", "row_rhombi_float"])
def test_validator_stats_compared_with_json_type(path, retype):
    # 18.0 == 18 and True == 1 in Python, but a ledger that records a count
    # as a float or a boolean does not record the replayed integer
    full, _ = _tamper_ledgers()
    value = full
    for key in path:
        value = value[key]
    assert type(value) is int and retype(value) == value
    report = validate_ledger(ledger_from_obj(_tampered(full, path, retype(value))))
    failed = [(entry, detail) for entry, ok, detail in report.entries if not ok]
    assert [entry for entry, _ in failed] == ["budget"]
    assert failed[0][1].endswith(f"; stats differ: {path[1]}")


def test_validator_rejects_unknown_pivot_stage():
    # relabelling a planarize pivot and lowering its counter kept every stat
    # in step; the replay now refuses the stage, and the report says so
    full, _ = _tamper_ledgers()
    i = next(i for i, m in enumerate(full["moves"]) if m.get("stage") == "planarize")
    doc = _tampered(full, ("moves", i, "stage"), "bogus")
    doc["stats"]["planarize_moves"] -= 1
    ledger = ledger_from_obj(doc)
    state = Replayer(ledger.initial)
    with pytest.raises(ReplayMismatchError, match="unknown pivot stage 'bogus'"):
        for move in ledger.moves:
            state.apply(move)
    report = validate_ledger(ledger)
    assert [(entry, ok) for entry, ok, _ in report.entries] == [
        ("initial_curve", True), ("replay", False)]
    assert report.entries[-1][2] == "unknown pivot stage 'bogus'"


def test_signed_segment_counts_cancellation():
    tri = np.array([[0, 0, 0], [1, 0, 0], [0.5, np.sqrt(3) / 2, 0.0]])
    assert signed_segment_counts([tri], [tri]) == {}
    reversed_tri = tri[::-1]
    assert signed_segment_counts([tri, reversed_tri], []) == {}
    assert signed_segment_counts([tri], []) != {}


def _segment_counts_reference(cycles_plus, cycles_minus):
    """The per-point tuple loop the numpy pass replaced, kept as its oracle."""
    counts = {}

    def quantize(p):
        return tuple(int(round(float(x) / EPS)) for x in p)

    def add(vertices, sign):
        keys = [quantize(p) for p in np.asarray(vertices, dtype=float)]
        for i, a in enumerate(keys):
            b = keys[(i + 1) % len(keys)]
            if a == b:
                counts[("degenerate", a)] = counts.get(("degenerate", a), 0) + 1
                continue
            key, s = ((a, b), sign) if a < b else ((b, a), -sign)
            counts[key] = counts.get(key, 0) + s

    for cycle in cycles_plus:
        add(cycle, +1)
    for cycle in cycles_minus:
        add(cycle, -1)
    return {k: v for k, v in counts.items() if v != 0 or k[0] == "degenerate"}


def _reference_ledgers():
    """Reduced ledgers at n = 9, 24 and 48, and one of two components."""
    rng = np.random.default_rng(40)
    ledgers = [reduce_to_rhombi(random_integral_curve(n, rng)) for n in (9, 24, 48)]
    tri = np.array([[0, 0, 0], [1, 0, 0], [0.5, np.sqrt(3) / 2, 0.0]])
    loop = random_integral_curve(11, rng).components[0] + np.array([5.0, 0, 0])
    ledgers.append(reduce_to_rhombi(IntegralCurve([tri, loop])))
    return ledgers


def _chain_cycles(ledger):
    chain = assemble_from_ledger(ledger)
    plus = [t.vertices for t in chain.triangles] + [r.vertices for r in chain.rhombus_cells]
    minus = list(ledger.initial.components) + [r.vertices for r in chain.rhombi]
    return plus, minus


def test_signed_segment_counts_matches_reference():
    cases = []
    for ledger in _reference_ledgers():
        plus, minus = _chain_cycles(ledger)
        cases += [(plus, minus), (plus, minus[:-1]),
                  ([c[::-1] for c in plus], [c[::-1] for c in minus])]
    tri = np.array([[0, 0, 0], [1, 0, 0], [0.5, np.sqrt(3) / 2, 0.0]])
    repeated = np.vstack([tri[0], tri[1], tri[1], tri[2]])
    cases += [([repeated], [tri]), ([tri], [repeated[::-1]]), ([], [])]
    for plus, minus in cases:
        got = signed_segment_counts(plus, minus)
        assert got == _segment_counts_reference(plus, minus)
    # the dropped rhombus and the repeated vertex leave a residue
    assert signed_segment_counts(*cases[1]) != {}
    assert signed_segment_counts([repeated], [tri]) == {
        ("degenerate", tuple(int(round(x / 1e-9)) for x in tri[1])): 1}


def test_signed_segment_counts_refuses_int64_wrap():
    # a bare int64 cast maps both far triangles onto INT64_MIN and cancels them
    tri = np.array([[0, 0, 0], [1, 0, 0], [0.5, np.sqrt(3) / 2, 0.0]])
    with pytest.raises(OverflowError):
        signed_segment_counts([tri + 1e10], [tri + 2e10])


_SEGMENT = re.compile(r"\(([^()]*)\) -> \(([^()]*)\): ([+-]\d+)")


def test_chain_identity_names_unbalanced_segments(monkeypatch):
    ledger = reduce_to_rhombi(random_integral_curve(9, np.random.default_rng(3)))
    chain = assemble_from_ledger(ledger)
    moved = chain.rhombi[0].vertices.copy()
    # moving a derived rhombus away leaves its four segments unbalanced in place
    chain.rhombi[0] = Rhombus(moved + 100.0)
    monkeypatch.setattr(surface, "assemble_from_ledger", lambda *args: chain)
    report = validate_ledger(ledger)
    (detail,) = [d for name, ok, d in report.entries if name == "chain_identity" and not ok]
    assert detail.startswith("8 unbalanced segments [")
    listed = [(np.array(a.split(", "), dtype=float), np.array(b.split(", "), dtype=float),
               int(count)) for a, b, count in _SEGMENT.findall(detail)]
    assert len(listed) == 5
    # the copy at +100 sorts last, so the first four are the vacated sides
    sides = {tuple(sorted((tuple(np.round(moved[i], 6)), tuple(np.round(moved[(i + 1) % 4], 6)))))
             for i in range(4)}
    vacated = {(tuple(np.round(a, 6)), tuple(np.round(b, 6))) for a, b, _ in listed[:4]}
    assert vacated == sides
    assert all(abs(count) == 1 for _, _, count in listed)


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
        [edges, first.vertices, second.vertices[[0, 3, 2, 1]]])
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
