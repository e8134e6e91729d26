import copy
import json
import re
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.optimize import brentq

from conftest import (
    crown_curve,
    crown_union,
    regular_polygon_curve,
    replayed_cells,
    segment_counts,
)
from rhombidome import surface
from rhombidome.cobordism import reduce_to_rhombi
from rhombidome.files import ledger_from_obj, ledger_to_obj
from rhombidome.curve import IntegralCurve, from_integer_curve, random_integral_curve
from rhombidome.moduli import isotropy_certificate
from rhombidome.surface import (
    CloseRhombusMove,
    CobordismLedger,
    NotBoundaryEdgeError,
    NotInTriangleError,
    NotOnPivotCircleError,
    PackMove,
    PentagonMove,
    PivotMove,
    PositioningViolatedError,
    Replayer,
    ReplayMismatchError,
    SplitMove,
    SurfaceInvariantError,
    UnknownNameError,
    _check_unit_cycle,
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


def test_orientation_cancels_each_signed_reference():
    s = catalog("pentagon_pants")
    s.walks[1][0] = -6  # edge 6 now runs the same way on both walks
    assert not is_oriented_consistently(s)
    s.walks[1][0] = 0
    with pytest.raises(ValueError, match="^edge reference 0 is invalid$"):
        is_oriented_consistently(s)


@pytest.mark.parametrize("name, k", [
    *((name, None) for name in ("triangle_disk", "antiprism_band", "pentagon_pants",
                                "three_rhombus_pants")),
    *(("antiprism_band", k) for k in range(3, 65))])
def test_catalog_surfaces_validate(name, k):
    """``catalog`` does not validate; every surface it builds would pass."""
    catalog(name, k=k).validate()


def test_catalog_unknown_name():
    with pytest.raises(UnknownNameError):
        catalog("mystery_surface")
    for name in ("triangle_disk", "pentagon_pants", "three_rhombus_pants"):
        with pytest.raises(UnknownNameError, match="takes no parameter k"):
            catalog(name, k=4)


@pytest.mark.parametrize("part, refs, bad", [
    ("triangles", [(1, 2, 4)], "4"), ("triangles", [(1, 0, 3)], "0"),
    ("walks", [[1, 2, -4]], "-4"), ("walks", [[0, 2, 3]], "0"),
    ("walks", [[1, 2, 2.5]], "2.5"), ("triangles", [(1, 2, 3.0)], "3.0")],
    ids=["triangle_past_end", "triangle_zero", "walk_past_end", "walk_zero",
         "walk_not_integer", "triangle_float"])
def test_validate_names_a_bad_edge_reference(part, refs, bad):
    s = catalog("triangle_disk")
    setattr(s, part, refs)
    with pytest.raises(SurfaceInvariantError, match=f"edge reference {bad} names no edge$"):
        s.validate()


@pytest.mark.parametrize("changes, message", [
    ({"lengths": np.ones(2)}, "one length per edge pair required"),
    ({"triangles": [(1, 2)]}, "triangles need exactly 3 edge refs"),
    ({"lengths": np.array([1.0, 1.0, 3.0]), "coords": None}, "triangle inequality violated"),
    ({"walks": [[1, 2, 3], []]}, "empty boundary walk"),
    ({"walks": [[1, 2, 3], [1, 2, 3]]},
     "every edge must be used exactly twice across triangles and walks"),
    ({"genus_hat": 1}, "Euler characteristic 2 != 0"),
    ({"triangles": [(1, 3, 2)]}, "triangle is not a closed edge cycle"),
    ({"walks": [[1, -2, 3]]}, "boundary walk is not a closed edge cycle"),
], ids=["lengths_short", "triangle_two_refs", "triangle_inequality", "walk_empty",
        "edge_used_thrice", "euler_characteristic", "triangle_not_a_cycle",
        "walk_not_a_cycle"])
def test_validate_names_each_invariant_it_refuses(changes, message):
    s = catalog("triangle_disk")
    for part, value in changes.items():
        setattr(s, part, value)
    with pytest.raises(SurfaceInvariantError, match=f"^{re.escape(message)}$"):
        s.validate()


@pytest.mark.parametrize("drop_coords", [False, True], ids=["coords", "no_coords"])
@pytest.mark.parametrize("length", [np.nan, np.inf, 0.0, -1.0, "1", None])
def test_validate_refuses_a_non_finite_or_non_positive_length(length, drop_coords):
    # edge 0, a pentagon side, lies on walks only: no triangle inequality
    # reads its length, and without coords nothing realizes it either
    s = catalog("pentagon_pants")
    if not isinstance(length, float):  # a value that is not a number
        s.lengths = s.lengths.astype(object)
    s.lengths[0] = length
    if drop_coords:
        s.coords = None
    with pytest.raises(SurfaceInvariantError, match="^edge lengths must be finite and positive$"):
        s.validate()
    with pytest.raises(SurfaceInvariantError):
        isotropy_certificate(s, trials=1)


@pytest.mark.parametrize("length, accepted", [
    (1.0, True), (1, True), (np.float32(1.0), True), (Fraction(1), True),
    (Decimal(1), False), (1 + 0j, False)],
    ids=["float", "int", "float32", "fraction", "decimal", "complex"])
def test_validate_takes_any_real_length(length, accepted):
    # the test for a float, ahead of ``numbers.Real``, accepts nothing more:
    # any real number is a length, and a Decimal or a complex is not
    s = catalog("pentagon_pants")
    s.lengths = s.lengths.astype(object)
    s.lengths[0] = length
    if accepted:
        s.validate()
    else:
        with pytest.raises(SurfaceInvariantError,
                           match="^edge lengths must be finite and positive$"):
            s.validate()


@pytest.mark.parametrize("edge, message", [
    ((0, 1, 2), "edge (0, 1, 2) is not a vertex pair"), ((0,), "edge (0,) is not a vertex pair"),
    (7, "edge 7 is not a vertex pair"), ((0.0, 1), "edge endpoint 0.0 names no vertex"),
    (("0", 1), "edge endpoint '0' names no vertex"), ((-1, 1), "edge endpoint -1 names no vertex"),
    ((0, 6), "edge endpoint 6 names no vertex")])
def test_validate_refuses_an_edge_that_is_not_a_vertex_pair(edge, message):
    s = catalog("pentagon_pants")
    s.edges[0] = edge
    with pytest.raises(SurfaceInvariantError, match=f"^{re.escape(message)}$"):
        s.validate()


def test_validate_refuses_coords_that_are_not_a_vertex_array():
    s = catalog("pentagon_pants")
    for coords in (s.coords.tolist(), s.coords[:, :2], s.coords[:5]):
        s.coords = coords
        with pytest.raises(SurfaceInvariantError, match=r"^coords must be a \(6, 3\) array$"):
            s.validate()


def test_validate_refuses_a_nan_coordinate():
    # the apex, vertex 5, ends edges 5, 6 and 7; NaN fails the length check
    s = catalog("pentagon_pants")
    s.coords[5, 0] = np.nan
    with pytest.raises(SurfaceInvariantError, match="^edge 5 realizes length nan, expected 1.0$"):
        s.validate()


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


@pytest.mark.parametrize("index", [5, -1])
def test_collapse_rejects_a_missing_triangle(index):
    # -1 would name the last triangle as a Python index
    with pytest.raises(NotInTriangleError, match=f"^no triangle {index}$"):
        collapse(catalog("triangle_disk"), index, 1)


# ---------------------------------------------------------------------------
# dome chains and the validator


def test_assemble_identity_rhombus(unit_square):
    ledger = reduce_to_rhombi(unit_square)
    chain = assemble_from_ledger(ledger)
    assert len(chain.triangles) == 0 and len(chain.rhombus_cells) == 0
    residue = segment_counts(
        [], [ledger.initial.components[0], chain.rhombi[0]])
    assert residue == {}


def test_assemble_pentagon_chain(regular_pentagon):
    ledger = reduce_to_rhombi(regular_pentagon)
    chain = assemble_from_ledger(ledger)
    assert len(chain.triangles) == 1
    assert len(chain.rhombus_cells) == 0  # no pivots were needed
    assert len(chain.rhombi) == 2
    # the apex spokes shared by the triangle and both rhombi cancel by
    # orientation alone, leaving exactly the pentagon
    residue = segment_counts(
        [chain.triangles[0]],
        [ledger.initial.components[0]] + list(chain.rhombi))
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
            return move, state.rows(move.component)
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
    apex, v = np.array(move.apex), np.array(v)
    move.apex = (apex + 1e-3 * (apex - v[0])).tolist()
    assert re.fullmatch(r"pentagon apex at distance 1\.00\d+ from vertex 0",
                        _replay_failure(ledger))


def test_validator_flags_perturbed_triangle():
    # turned on its unit sphere about v0, the apex stays a rhombus vertex but
    # leaves the triangle [v2 v3 a]: the replay names vertex 2
    ledger = reduce_to_rhombi(random_integral_curve(9, np.random.default_rng(22)))
    move, v = _first_pentagon(ledger)
    apex, v = np.array(move.apex), np.array(v)
    moved = apex - v[0] + 1e-3 * (apex - v[2])
    move.apex = (v[0] + moved / np.linalg.norm(moved)).tolist()
    assert _replay_failure(ledger).endswith(" from vertex 2")


def test_validator_flags_wrong_stats():
    ledger = reduce_to_rhombi(regular_polygon_curve(5))
    ledger.stats["k"] = 99
    report = validate_ledger(ledger)
    assert not report.passed


def test_validator_flags_invalid_initial_curve():
    ledger = reduce_to_rhombi(regular_polygon_curve(5))
    comp = ledger.initial.components[0]
    comp[0] = [1.5 * x for x in comp[0]]
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
    assert m1 and m2
    replay = Replayer(curve)
    for move in moves:
        replay.apply(move)
    k = len(replay.rhombus_cells)
    ledger = CobordismLedger(
        initial=curve.copy(), moves=list(moves), final_curve=packed.copy(),
        stats={"n": 10, "k": k, "budget": component_budget(10)})
    assert validate_ledger(ledger).passed


@pytest.mark.parametrize("edit, failed, message", [
    (lambda ledger: setattr(ledger, "stats", None), ["budget"], ""),
    (lambda ledger: ledger.stats["per_component"][0].update(rhombi_used=None),
     ["budget"], ""),
    (lambda ledger: _first_pentagon(ledger)[0].apex.__setitem__(0, np.nan), ["replay"], ""),
    (lambda ledger: next(m for m in ledger.moves if isinstance(m, PivotMove))
     .new_point.__setitem__(0, np.nan), ["replay"], ""),
    (lambda ledger: _square_off_grid(ledger), [], ""),
    (lambda ledger: _first_pentagon(ledger)[0].apex.__setitem__(2, np.inf), ["replay"], ""),
    (lambda ledger: _split_into_itself(ledger), ["replay"], "split target id already in use"),
    (lambda ledger: _split_a_pentagon(ledger), ["replay"],
     "split needs a component with > 5 edges"),
    (lambda ledger: ledger.moves.insert(1, object()), ["replay"], "unknown move type"),
    (lambda ledger: ledger.final_curve.components.append(regular_polygon_curve(3).components[0]),
     ["replay"], "final curve component count mismatch"),
], ids=["stats_none", "rhombi_used_none", "apex_nan", "pivot_point_nan",
        "rhombus_off_grid", "apex_inf", "split_target_in_use", "split_a_pentagon",
        "move_without_kind", "final_curve_extra_component"])
def test_validator_reports_instead_of_raising(edit, failed, message):
    ledger = reduce_to_rhombi(crown_union(3))
    edit(ledger)
    report = validate_ledger(ledger)
    assert [name for name, ok, _ in report.entries if not ok] == failed
    assert all(message in detail for _, ok, detail in report.entries if not ok)


class _MarkedPentagon(PentagonMove):
    """A pentagon move of a class the move table does not name."""


@pytest.mark.parametrize("move", [
    object(), _MarkedPentagon(0, [0.0, 0.0, 1.0]),
    SimpleNamespace(kind="pivot", component=0, vertex=1, new_point=[0.5, 0.5, 0.5],
                    stage="pivot")],
    ids=["object", "subclass", "look_alike"])
def test_replay_refuses_a_move_of_another_class(move):
    # the replay dispatches on the move's class, so neither a subclass of a
    # move class nor an object with a move's ``kind`` and fields replays
    state = Replayer(regular_polygon_curve(6))
    with pytest.raises(ReplayMismatchError, match="^unknown move type "):
        state.apply(move)
    assert state.moves == []


def _split_into_itself(ledger):
    split = next(m for m in ledger.moves if isinstance(m, SplitMove))
    split.new_component = split.component


def _split_a_pentagon(ledger):
    """Split the component of the first pentagon move just before that move."""
    i, pentagon = next((i, m) for i, m in enumerate(ledger.moves) if m.kind == "pentagon")
    new_component = max(m.new_component for m in ledger.moves if isinstance(m, SplitMove)) + 1
    ledger.moves.insert(i, SplitMove(pentagon.component, new_component, [0.0, 0.0, 0.0]))


def _square_off_grid(ledger):
    """Make ``ledger`` close a unit square at x = 1e10, whose sides are
    exactly unit: a correct ledger, which a chain identity on a 1e-9
    coordinate grid with int64 keys refused."""
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


def _tamper_ledgers(seed: int = 5):
    """The ledger of ``crown_union(seed)`` and its prefix of pivots and packs,
    as JSON documents.  The ledger has every kind of move but the closing
    ones, and splits at vertex 0 and elsewhere.

    The prefix stops before the first split, so its final curve is nonempty.
    """
    full = reduce_to_rhombi(crown_union(seed))
    state = Replayer(full.initial)
    for move in full.moves:
        if move.kind not in ("pivot", "pack"):
            break
        state.apply(move)
    prefix = CobordismLedger(initial=full.initial.copy(), moves=state.moves,
                             final_curve=state.final_curve(),
                             stats={"k": len(state.rhombus_cells),
                                    "budget": full.stats["budget"]})
    return ledger_to_obj(full), ledger_to_obj(prefix)


def _rotated_bridges(doc: dict, theta: float = 0.3):
    """Yield (move index, z) for each split of ``doc``, with z turned by
    ``theta`` about the axis through the split's vertices at and at + 3:
    still at unit distance from both, so the replay accepts it."""
    ledger = ledger_from_obj(doc)
    state = Replayer(ledger.initial)
    for i, move in enumerate(ledger.moves):
        if move.kind == "split":
            v = state.rows(move.component)
            a, b = np.array([v[move.at], v[(move.at + 3) % len(v)]])
            yield i, (a + _rotation(b - a, theta) @ (move.z - a)).tolist()
        state.apply(move)


def _split_sizes(doc: dict) -> dict[int, int]:
    """The size of the component each split of ``doc`` peels, by move index."""
    ledger = ledger_from_obj(doc)
    state, sizes = Replayer(ledger.initial), {}
    for i, move in enumerate(ledger.moves):
        if move.kind == "split":
            sizes[i] = len(state.component(move.component))
        state.apply(move)
    return sizes


def _tamper_edits(full: dict, prefix: dict):
    """Yield (name, document, path, value): set doc[path] to value."""
    sizes = _split_sizes(full)
    for i, move in enumerate(full["moves"]):
        if move["type"] == "pivot":
            yield f"move {i} new", full, ("moves", i, "new", 0), move["new"][0] + 1e-3
        if move["type"] == "split":
            yield f"move {i} z", full, ("moves", i, "z", 0), move["z"][0] + 1e-3
            for bad in (-1, sizes[i]):
                yield f"move {i} at={bad}", full, ("moves", i, "at"), bad
        if move["type"] == "pentagon":
            for c, x in enumerate(move["apex"]):
                yield f"move {i} apex[{c}]", full, ("moves", i, "apex", c), x + 1e-3
        if move["type"] == "pack":
            # a transposition changes the parity of the swap count
            for name, order in _order_edits(move["order"]):
                yield f"move {i} order {name}", full, ("moves", i, "order"), order
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


def _order_edits(order: list):
    """(name, order): every transposition of two entries, then orders that
    are not permutations."""
    n = len(order)
    for a in range(n):
        for b in range(a + 1, n):
            edited = list(order)
            edited[a], edited[b] = edited[b], edited[a]
            yield f"swap {a} {b}", edited
    yield "short", order[:-1]
    yield "long", order + [n]
    yield "duplicate", order[:1] + order[:1] + order[2:]
    yield "-1", [-1] + order[1:]
    yield "n", order[:-1] + [n]


def test_rotated_bridge_is_another_valid_reduction():
    # a bridge turned on its unit circle stays at unit distance from vertices
    # at and at + 3, and every cell that touches it is derived from it: the
    # edited ledger is a different reduction, with different boundary rhombi,
    # and it holds as well.  At seed 35 the n = 9 curve peels at positions 2,
    # 3, 0 and 2, and no later move rests on a bridge; at seed 3 a later
    # pentagon's apex is at unit distance from one, and a turned bridge moves
    # it off.
    full = ledger_to_obj(reduce_to_rhombi(random_integral_curve(9, np.random.default_rng(35))))
    assert [m["at"] for m in full["moves"] if m["type"] == "split"] == [2, 3, 0, 2]
    before = assemble_from_ledger(ledger_from_obj(full)).rhombi
    count = 0
    for i, z in _rotated_bridges(full):
        ledger = ledger_from_obj(_tampered(full, ("moves", i, "z"), z))
        assert validate_ledger(ledger).passed
        after = assemble_from_ledger(ledger).rhombi
        assert not all(np.array_equal(a, b) for a, b in zip(before, after))
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


@pytest.mark.parametrize("edit", ["short", "long", "duplicate", "-1", "n"])
def test_validator_refuses_an_order_that_is_no_permutation(edit):
    full, _ = _tamper_ledgers()
    i, move = next((i, m) for i, m in enumerate(full["moves"]) if m["type"] == "pack")
    order = dict(_order_edits(move["order"]))[edit]
    report = validate_ledger(ledger_from_obj(_tampered(full, ("moves", i, "order"), order)))
    assert [(entry, ok) for entry, ok, _ in report.entries] == [
        ("initial_curve", True), ("replay", False)]
    assert report.entries[-1][2] == "pack order is not a permutation of range(12)"


@pytest.mark.parametrize("edit", ["-1", "size"])
def test_validator_refuses_a_split_position_out_of_range(edit):
    full, _ = _tamper_ledgers()
    sizes = _split_sizes(full)
    # the last split is the loop's, which peels away from vertex 0
    i = max(sizes)
    assert full["moves"][i]["at"] != 0
    at = -1 if edit == "-1" else sizes[i]
    report = validate_ledger(ledger_from_obj(_tampered(full, ("moves", i, "at"), at)))
    assert [(entry, ok) for entry, ok, _ in report.entries] == [
        ("initial_curve", True), ("replay", False)]
    assert report.entries[-1][2] == f"split position {at} out of range({sizes[i]})"


def test_pack_swap_of_equal_edges_is_a_no_op():
    # a 2 x 1 rectangle: edges 0 and 1 are equal, so swapping them moves
    # nothing, counts nothing and derives nothing
    rect = IntegralCurve([np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0], [2, 1, 0],
                                    [1, 1, 0], [0, 1, 0.0]])])
    state = Replayer(rect)
    state.apply(PackMove(0, [1, 0, 2, 3, 4, 5]))
    assert state.stats()["pack_moves"] == 0 and state.rhombus_cells == []
    assert np.array_equal(state.rows(0), rect.components[0])
    # swapping edges 1 and 2 pivots vertex 2 and derives the unit square
    state.apply(PackMove(0, [0, 2, 1, 3, 4, 5]))
    assert state.stats()["pack_moves"] == 1
    (cell,) = replayed_cells(state, "rhombus_cells")
    assert np.array_equal(cell, [[1, 0, 0], [2, 0, 0], [2, 1, 0], [1, 1, 0]])


_HEXAGON = regular_polygon_curve(6).components[0]
_FAR = [5.0, 5.0, 5.0]


@pytest.mark.parametrize("rows, move, error, match", [
    (_HEXAGON, PivotMove(0, 1, _FAR), NotOnPivotCircleError, "^pivot target at distance"),
    (_HEXAGON, SplitMove(0, 1, _FAR), ReplayMismatchError, "^split bridge at distance"),
    (_HEXAGON, SplitMove(0, 0, _FAR), ReplayMismatchError, "^split target id already in use"),
    (regular_polygon_curve(5).components[0], PentagonMove(0, _FAR),
     ReplayMismatchError, "^pentagon apex at distance"),
    (_HEXAGON, CloseRhombusMove(0), ReplayMismatchError, "has 6 vertices, expected 4"),
    # slot 0 swaps, then the swap of edges 2 and 3 moves vertex 3 to a point
    # at distance 1.5 (edge 3's length) from its neighbour: the move raises,
    # and the swap it already made must not show
    ([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0], [0, 2.5, 0], [0, 1.5, 0.5]],
     PackMove(0, [1, 0, 3, 2, 4, 5]), NotOnPivotCircleError, "distance 1.5 from a neighbour"),
], ids=["pivot", "split_bridge", "split_id", "pentagon", "close", "pack"])
def test_failed_move_leaves_the_state_as_it_was(rows, move, error, match):
    state = Replayer(IntegralCurve([rows]))

    def snapshot():
        return copy.deepcopy((state.points, state.components, state.rhombus_cells,
                              state.folds, state.triangles, state.rhombi, state.moves,
                              state.stats()))

    before = snapshot()
    with pytest.raises(error, match=match):
        state.apply(move)
    assert snapshot() == before and state.points == rows


def test_point_table_holds_each_point_in_creation_order():
    # the initial vertices first, then each point a move creates: a pivot's
    # target, one per counted pack swap, a bridge, an apex; every cell's ids
    # name rows of the table, and ``rows`` reads a component's points through
    # its ids into a fresh list
    ledger = reduce_to_rhombi(crown_union(5))
    state = Replayer(ledger.initial)
    assert state.points == [row for c in ledger.initial.components for row in c]
    for move in ledger.moves:
        before, swaps = len(state.points), state.stats()["pack_moves"]
        state.apply(move)
        created = state.points[before:]
        if move.kind == "pack":
            assert len(created) == state.stats()["pack_moves"] - swaps > 0
        else:
            made = [getattr(move, name) for name in ("new_point", "z", "apex")
                    if hasattr(move, name)]
            assert all(a is b for a, b in zip(created, made)) and len(created) == len(made)
        for cid, ids in state.components.items():
            rows, table = state.rows(cid), [state.points[i] for i in ids]
            assert rows == table
            rows[0] = None  # changing the fresh list leaves the state alone
            assert state.rows(cid) == table and state.component(cid) is ids
    assert {move.kind for move in ledger.moves} >= {"pivot", "pack", "split", "pentagon"}
    for kind, k in (("triangles", 3), ("rhombus_cells", 4), ("rhombi", 4)):
        cells = getattr(state, kind)
        assert cells and all(len(cell) == k and max(cell) < len(state.points) for cell in cells)


def test_pivot_after_a_split_leaves_shared_rows_alone():
    # the pentagon [v0 v1 v2 v3 z] and the remainder [v0 z v3 v4 v5] share
    # the bridge id z (point 7), and each pivot cell holds the ids it was
    # read from
    s3 = 0.75 ** 0.5
    hexagon = [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0], [-1, 1, 0], [-1, 0, 0]]
    state = Replayer(IntegralCurve([np.array(hexagon, dtype=float)]))
    state.apply(PivotMove(0, 1, [0.5, 0.5, 0.5 ** 0.5]))
    state.apply(SplitMove(0, 1, [0, 0.5, s3]))
    assert state.component(1) == [0, 6, 2, 3, 7] and state.component(0) == [0, 7, 3, 4, 5]
    state.apply(PivotMove(0, 1, [s3, 0.5, 0]))
    # the remainder's bridge vertex moves again
    state.apply(PivotMove(0, 1, [0, 0.5, -s3]))
    assert state.component(1) == [0, 6, 2, 3, 7] and state.component(0) == [0, 9, 3, 4, 5]
    assert state.rhombus_cells == [[0, 1, 2, 6], [0, 7, 3, 8], [0, 8, 3, 9]]
    assert state.points[7] == [0, 0.5, s3] and state.points[9] == [0, 0.5, -s3]


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
    # as a float or a boolean does not record the replayed integer; at seed 5
    # the n = 9 curve needs one fix
    full = ledger_to_obj(reduce_to_rhombi(random_integral_curve(9, np.random.default_rng(5))))
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
    assert segment_counts([tri], [tri]) == {}
    reversed_tri = tri[::-1]
    assert segment_counts([tri, reversed_tri], []) == {}
    assert segment_counts([tri], []) != {}


def _segment_counts_reference(cycles_plus, cycles_minus):
    """The per-segment loop over id cycles, kept as the numpy pass's oracle."""
    counts = Counter()
    for sign, cycles in ((1, cycles_plus), (-1, cycles_minus)):
        for cycle in cycles:
            ids = [int(i) for i in cycle]
            for a, b in zip(ids, ids[1:] + ids[:1]):
                if a != b:
                    counts[min(a, b), max(a, b)] += sign if a < b else -sign
    return {key: counts[key] for key in sorted(counts) if counts[key]}


def _reference_ledgers():
    """Reduced ledgers at n = 9, 24 and 48, one of two components, the
    crown's, whose pack derives most of its pivot cells, and a collinear
    out-and-back walk's, whose pack swaps are folds."""
    rng = np.random.default_rng(40)
    ledgers = [reduce_to_rhombi(random_integral_curve(n, rng)) for n in (9, 24, 48)]
    tri = np.array([[0, 0, 0], [1, 0, 0], [0.5, np.sqrt(3) / 2, 0.0]])
    loop = random_integral_curve(11, rng).components[0] + np.array([5.0, 0, 0])
    ledgers.append(reduce_to_rhombi(IntegralCurve([tri, loop])))
    ledgers.append(reduce_to_rhombi(crown_curve()))
    ledgers.append(reduce_to_rhombi(from_integer_curve([np.array([[0, 0, 0], [3, 0, 0.0]])])))
    return ledgers


def _single_cycles(entries):
    """The entries with every (m, k) stack split into its m cycles."""
    return [cycle for entry in entries
            for cycle in (entry if np.ndim(entry) == 2 else [entry])]


def _random_id_cycles(rng):
    """A few id cycles and (m, k) stacks over 8 ids, repeats allowed."""
    return [rng.integers(0, 8, size=rng.integers(1, 7) if rng.random() < 0.7
                         else (rng.integers(0, 4), rng.integers(1, 5)))
            for _ in range(rng.integers(0, 4))]


def test_signed_segment_counts_matches_reference():
    cases, folds = [], 0
    for ledger in _reference_ledgers():
        chain = assemble_from_ledger(ledger)
        folds += len(chain.fold_ids)
        plus = [chain.triangle_ids, chain.rhombus_cell_ids, chain.fold_ids, *chain.final_ids]
        minus = [*chain.initial_ids, chain.rhombi_ids]
        unfolded = [*plus[:2], *plus[3:]]
        assert signed_segment_counts(plus, minus) == {}
        # the dropped rhombi leave a residue, and so do dropped folds
        assert signed_segment_counts(plus, minus[:-1]) != {}
        assert (signed_segment_counts(unfolded, minus) != {}) == bool(len(chain.fold_ids))
        cases += [(plus, minus), (plus, minus[:-1]), (unfolded, minus),
                  ([chain.rhombus_cell_ids[:, ::-1], np.empty((0, 4), dtype=int)],
                   [chain.rhombi_ids])]
        plus, minus = _single_cycles(plus), _single_cycles(minus)
        cases += [(plus, minus[:-1]), ([c[::-1] for c in plus], [c[::-1] for c in minus])]
    assert folds
    rng = np.random.default_rng(41)
    cases += [(_random_id_cycles(rng), _random_id_cycles(rng)) for _ in range(200)]
    cases.append(([], []))
    # the stacks count as their cycles one by one
    for plus, minus in cases:
        got = signed_segment_counts(plus, minus)
        assert got == _segment_counts_reference(_single_cycles(plus), _single_cycles(minus))
        assert list(got) == sorted(got)


_SEGMENT = re.compile(r"\(([^()]*)\) -> \(([^()]*)\): ([+-]\d+)")


def test_chain_identity_names_unbalanced_segments(monkeypatch):
    ledger = reduce_to_rhombi(random_integral_curve(9, np.random.default_rng(3)))
    chain = assemble_from_ledger(ledger)
    moved = chain.rhombi[0].copy()
    # moving a derived rhombus away leaves its four segments unbalanced in place
    chain.rhombi_ids[0] = len(chain.points) + np.arange(4)
    chain.points = np.vstack([chain.points, moved + 100.0])
    monkeypatch.setattr(surface, "assemble_from_ledger", lambda *args: chain)
    report = validate_ledger(ledger)
    (detail,) = [d for name, ok, d in report.entries if name == "chain_identity" and not ok]
    assert detail.startswith("8 unbalanced segments [")
    listed = [(np.array(a.split(", "), dtype=float), np.array(b.split(", "), dtype=float),
               int(count)) for a, b, count in _SEGMENT.findall(detail)]
    assert len(listed) == 5

    def ends(a, b):
        return frozenset((tuple(np.round(a, 6)), tuple(np.round(b, 6))))

    # the copy at +100 has the highest ids, so the first four are the
    # vacated sides; a segment lists its ends in id order
    sides = {ends(moved[i], moved[(i + 1) % 4]) for i in range(4)}
    assert {ends(a, b) for a, b, _ in listed[:4]} == sides
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
    first = np.vstack([np.zeros(3), u, u + w, w])
    axis = u + w

    def gap(theta):
        return np.linalg.norm(_rotation(axis, theta) @ u - u) - 1.0

    theta = brentq(gap, 0.1, np.pi - 0.1)
    rot = _rotation(axis, theta)
    second = np.vstack([np.zeros(3), rot @ u, rot @ (u + w), rot @ w])
    return first, second, theta


def test_hexagon_join_solved_pair():
    first, second, theta = _joined_pair()
    assert theta == pytest.approx(np.pi / 2, abs=1e-9)  # perpendicular half-planes
    hexagon, (t1, t2) = hexagon_join(first, second)
    edges = hexagon.components[0]
    lengths = np.linalg.norm(np.roll(edges, -1, axis=0) - edges, axis=1)
    assert float(np.max(np.abs(lengths - 1.0))) <= 1e-9
    _check_unit_cycle(t1, "triangle", 3)
    _check_unit_cycle(t2, "triangle", 3)
    # the two triangles bound hexagon + rho - rho'
    residue = segment_counts(
        [t1, t2],
        [edges, first, second[[0, 3, 2, 1]]])
    assert residue == {}


def test_hexagon_join_rejects_bad_gap():
    first, second, _ = _joined_pair()
    shifted = second + np.array([0.0, 0.0, 0.2])
    with pytest.raises(PositioningViolatedError):
        hexagon_join(first, shifted)


def test_hexagon_join_rejects_coincident_pair():
    first, _, _ = _joined_pair()
    with pytest.raises(PositioningViolatedError):
        hexagon_join(first, first.copy())
