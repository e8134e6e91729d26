"""Ledger and curve files: decode errors, decoded move points and round trips."""

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import crown_curve, crown_union
from rhombidome import files
from rhombidome.cobordism import _pack_component, reduce_to_rhombi
from rhombidome.curve import IntegralCurve, random_integral_curve
from rhombidome.surface import (
    MOVE_TABLE,
    CobordismLedger,
    PackMove,
    Replayer,
    assemble_from_ledger,
    validate_ledger,
)

DATA = Path(__file__).parent / "data"
V1_DIGON = DATA / "ledger_v1_collinear_digon.json"
# written by the version 2 writer for a closed 8-step cubic-lattice walk with
# a backtrack (splits, fix pivots, a degenerate pivot), a unit triangle and a
# unit square
V2_UNION = DATA / "ledger_v2_lattice_union.json"
# written by the version 3 writer for a closed 8-step cubic-lattice walk:
# planarize pivots, six pack pivots of which two are degenerate, splits and
# fix pivots
V3_WALK = DATA / "ledger_v3_lattice_walk.json"


@pytest.fixture(scope="module")
def ledger():
    # planarize pivots, a pack, splits at vertex 0 and elsewhere, fix pivots
    # and pentagons
    return reduce_to_rhombi(crown_union(5))


def _first(doc, kind):
    return next(m for m in doc["moves"] if m["type"] == kind)


def _v2_triangle_nan(doc):
    # a version 2 pentagon takes its apex from the triangle it names
    doc.clear()
    doc.update(json.loads(V2_UNION.read_text()))
    doc["triangles"][0][1][2] = float("nan")


def _nan_then_bad_int(doc):
    _first(doc, "pivot")["new"][0] = float("nan")
    doc["moves"][-1]["component"] = 1.5


def _bad_int_then_nan(doc):
    _first(doc, "pivot")["component"] = 1.5
    doc["moves"][-1]["apex"][0] = float("nan")


# Each message is the per-item decoder's, in the package's own words: a value
# that does not convert to floats says what was expected, as a wrong shape
# does, and keeps the conversion error as its cause.
@pytest.mark.parametrize("edit, message, cause", [
    (_v2_triangle_nan, "bad triangle: non-finite coordinate", None),
    (lambda doc: _first(doc, "pivot").__setitem__("new", [0.0, 1.0]),
     "bad pivot new: expected a 3-d point", None),
    (lambda doc: _first(doc, "split")["z"].__setitem__(1, float("inf")),
     "bad split z: non-finite coordinate", None),
    (lambda doc: _first(doc, "pivot").__setitem__("new", "0,0,1"),
     "bad pivot new: expected a 3-d point", ValueError),
    (_nan_then_bad_int, "bad pivot new: non-finite coordinate", None),
    (_bad_int_then_nan, "bad pivot component: expected an integer, got 1.5", None),
    (lambda doc: _first(doc, "pivot")["new"].__setitem__(0, 10 ** 400),
     "bad pivot new: expected a 3-d point", OverflowError),
    (lambda doc: _first(doc, "pentagon")["apex"].pop(),
     "bad pentagon apex: expected a 3-d point", None),
    # numpy parses numeric strings and takes booleans as 0.0 and 1.0
    (lambda doc: _first(doc, "pivot").__setitem__("new", ["0.5", "1", "2"]),
     "bad pivot new: expected a 3-d point", None),
    (lambda doc: _first(doc, "split").__setitem__("z", [True, 0.0, 0.0]),
     "bad split z: expected a 3-d point", None),
    (lambda doc: _first(doc, "pentagon").__setitem__("apex", [True, False, True]),
     "bad pentagon apex: expected a 3-d point", None),
    (lambda doc: doc["initial"]["components"][0].__setitem__(0, ["0", "0", "0"]),
     "bad curve component: expected a list of 3-d points", None),
    (lambda doc: doc["initial"]["components"][0][2].__setitem__(1, False),
     "bad curve component: expected a list of 3-d points", None),
    (lambda doc: _first(doc, "pack").__setitem__("order", {"0": 0}),
     "bad pack order: expected a list of integers", None),
    (lambda doc: _first(doc, "pack")["order"].__setitem__(1, "1"),
     "bad pack order: expected a list of integers", None),
    (lambda doc: _first(doc, "pack")["order"].__setitem__(1, True),
     "bad pack order: expected a list of integers", None),
    (lambda doc: _first(doc, "pack")["order"].__setitem__(1, 3.0),
     "bad pack order: expected a list of integers", None),
    # no writer before version 4 recorded a pack move
    (lambda doc: doc.update(version=3),
     "bad move: {'type': 'pack', 'component': 0, 'order': [0, 3, 5, 9, 1, 6, 7, 2, 8, 11, 4, 10]",
     None),
    (lambda doc: _first(doc, "split").update(at=True),
     "bad split at: expected an integer, got True", None),
    (lambda doc: _first(doc, "split").update(at=1.5),
     "bad split at: expected an integer, got 1.5", None),
    (lambda doc: _first(doc, "split").update(at="0"),
     "bad split at: expected an integer, got '0'", None),
    (lambda doc: _first(doc, "split").pop("at"), "malformed ledger document: 'at'", KeyError),
], ids=["triangle_nan", "pivot_new_2d", "split_z_inf",
        "point_is_string", "earlier_bad_point_first", "earlier_bad_int_first",
        "int_overflows_float", "apex_2d",
        "pivot_new_strings", "split_z_mixed_bool", "apex_bools", "curve_strings",
        "curve_bool", "order_object", "order_string", "order_true", "order_float",
        "pack_in_v3", "at_true", "at_float", "at_string", "at_missing"])
def test_decode_error_names_first_bad_item(ledger, edit, message, cause):
    doc = files.ledger_to_obj(ledger)
    edit(doc)
    with pytest.raises(files.FileFormatError) as info:
        files.ledger_from_obj(json.loads(json.dumps(doc)))
    assert str(info.value) == message
    assert type(info.value.__cause__) is (cause or type(None))


def test_move_points_are_float_rows_and_round_trip(ledger):
    # the reduction and the decoder both give each point field as a row of
    # three Python floats, so decoded moves compare equal to the written ones
    decoded = files.ledger_from_obj(json.loads(files.dump_json(files.ledger_to_obj(ledger))))
    for moves in (ledger.moves, decoded.moves):
        points = [getattr(move, attr) for move in moves
                  for _, attr, codec in MOVE_TABLE[move.kind].fields if codec == "point"]
        assert {move.kind for move in moves} >= {"pivot", "split", "pentagon"}
        assert all(type(p) is list and list(map(type, p)) == [float] * 3 for p in points)
    assert decoded.moves == ledger.moves


def test_move_table_fields_follow_each_class():
    # the decoder builds each move positionally from its table row
    for spec in MOVE_TABLE.values():
        assert ([attr for _, attr, _ in spec.fields]
                == [f.name for f in dataclasses.fields(spec.cls)])


def test_points_decode_to_float_rows_on_either_path():
    # three finite floats take the fast path; an int, or floats whose sum
    # overflows, take the full check, and every path gives a row of floats
    for point in ([0.5, 0.25, 2.0], [1.0, 2, 3.5], [1e308, 1e308, -1e308]):
        row = files._point(point, "point")
        assert row == point and row is not point
        assert list(map(type, row)) == [float] * 3


def test_empty_cell_lists_decode(ledger):
    # a version 2 document without moves stores empty cell lists
    doc = files.ledger_to_obj(ledger)
    doc.update(version=2, moves=[], triangles=[], rhombi=[], final_curve=doc["initial"])
    decoded = files.ledger_from_obj(doc)
    chain = assemble_from_ledger(decoded)
    assert decoded.moves == [] and len(chain.triangles) == 0 and len(chain.rhombi) == 0


def test_ledger_document_records_no_cells(ledger):
    doc = files.ledger_to_obj(ledger)
    assert doc["version"] == 5 and "triangles" not in doc and "rhombi" not in doc
    pentagon = _first(doc, "pentagon")
    assert sorted(pentagon) == ["apex", "component", "type"]
    # a split records its position and its bridge
    assert sorted(_first(doc, "split")) == ["at", "component", "new_component", "type", "z"]
    assert {m["at"] for m in doc["moves"] if m["type"] == "split"} > {0}
    # the pack records its order, and none of its swaps
    assert sorted(_first(doc, "pack")) == ["component", "order", "type"]
    assert not [m for m in doc["moves"] if m["type"] == "pivot" and m["stage"] == "pack"]


# "4" and "5" are an older and the current version written as strings
@pytest.mark.parametrize("version", [True, 2.0, 3.0, "3", "4", "5", None, 6, 0])
def test_ledger_version_must_be_a_supported_integer(ledger, version):
    # True == 1 and 2.0 == 2 in Python, but neither is a version
    doc = files.ledger_to_obj(ledger)
    doc["version"] = version
    with pytest.raises(files.FileFormatError, match="unsupported ledger document"):
        files.ledger_from_obj(doc)


@pytest.mark.parametrize("version", [True, 1.0, "1", None, 2])
def test_curve_version_must_be_a_supported_integer(version):
    doc = files.curve_to_obj(random_integral_curve(5, np.random.default_rng(1)))
    doc["version"] = version
    with pytest.raises(files.FileFormatError, match="unsupported curve document"):
        files.curve_from_obj(doc)


def test_ledger_file_is_one_compact_line(ledger, tmp_path):
    path = tmp_path / "ledger.json"
    files.write_ledger(str(path), ledger)
    text = path.read_text()
    assert text.count("\n") == 1 and text.endswith("\n")
    assert ", " not in text and ": " not in text
    assert text == json.dumps(json.loads(text), sort_keys=True, separators=(",", ":")) + "\n"


def test_compact_ledger_round_trips_byte_for_byte(ledger, tmp_path):
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    files.write_ledger(str(first), ledger)
    files.write_ledger(str(second), files.read_ledger(str(first)))
    assert first.read_bytes() == second.read_bytes()


def test_indented_ledger_reads_to_the_same_bytes(ledger, tmp_path):
    compact, indented, again = (tmp_path / name for name in ("c.json", "i.json", "r.json"))
    files.write_ledger(str(compact), ledger)
    indented.write_text(json.dumps(files.ledger_to_obj(ledger), indent=2, sort_keys=True) + "\n")
    files.write_ledger(str(again), files.read_ledger(str(indented)))
    assert again.read_bytes() == compact.read_bytes()


def _integral_as_int(node):
    """``node`` with every integral float written as a JSON integer; -0.0
    stays a float, since the integer 0 reads back as +0.0."""
    if isinstance(node, dict):
        return {key: _integral_as_int(value) for key, value in node.items()}
    if isinstance(node, list):
        return [_integral_as_int(value) for value in node]
    if isinstance(node, float) and node.is_integer() and (node or math.copysign(1.0, node) > 0):
        return int(node)
    return node


def test_integer_coordinates_read_as_floats(tmp_path):
    """JSON integers are coordinates: a cubic-lattice ledger written with
    integer coordinates reads, validates and re-writes to the float bytes.
    Every span of three steps around the 3 x 3 square is 3 or sqrt(5), so
    the walk takes the pack."""
    steps = np.repeat([[1, 0, 0], [0, 1, 0], [-1, 0, 0], [0, -1, 0]], 3, axis=0)
    ledger = reduce_to_rhombi(IntegralCurve([np.cumsum(steps, axis=0).astype(float)]))
    floats, ints, again = (tmp_path / name for name in ("f.json", "i.json", "a.json"))
    files.write_ledger(str(floats), ledger)
    doc = json.loads(floats.read_text())
    rewritten = {**doc, **{key: _integral_as_int(doc[key])
                           for key in ("initial", "moves", "final_curve")}}
    # some move points are lattice points too, not only the initial walk
    assert json.dumps(rewritten["moves"]) != json.dumps(doc["moves"])
    assert any(move["type"] == "pack" for move in doc["moves"])
    ints.write_text(json.dumps(rewritten))
    read = files.read_ledger(str(ints))
    assert validate_ledger(read).passed
    files.write_ledger(str(again), read)
    assert again.read_bytes() == floats.read_bytes()


def test_curve_file_round_trips(tmp_path):
    curve = random_integral_curve(11, np.random.default_rng(4))
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    files.write_curve(str(first), curve)
    files.write_curve(str(second), files.read_curve(str(first)))
    assert first.read_bytes() == second.read_bytes()
    assert first.read_text().count("\n") == 1


def test_v1_fixture_still_validates():
    assert "\n  " in V1_DIGON.read_text()  # written indented by the version 1 writer
    assert validate_ledger(files.read_ledger(str(V1_DIGON))).passed
    # version 1 also recorded each pentagon's apex; the reader takes the third
    # vertex of the pentagon's triangle, which is the same point
    doc = json.loads(V1_DIGON.read_text())
    pentagons = [m for m in doc["moves"] if m["type"] == "pentagon"]
    assert pentagons and all(m["apex"] == doc["triangles"][m["triangle"]][2]
                             for m in pentagons)


def test_v2_fixture_derives_its_recorded_cells_bitwise():
    doc = json.loads(V2_UNION.read_text())
    assert doc["version"] == 2
    ledger = files.ledger_from_obj(doc)
    assert validate_ledger(ledger).passed
    stats = doc["stats"]
    assert stats["splits"] > 0 and stats["fixes"] > 0
    chain = assemble_from_ledger(ledger)
    # a degenerate pivot derives no cell
    assert len(chain.rhombus_cells) < sum(move.kind == "pivot" for move in ledger.moves)
    assert {m["type"] for m in doc["moves"]} >= {"close_triangle", "close_rhombus"}
    # the shortest round-trip repr tells every float apart, -0.0 from 0.0 too
    for key, derived in (("triangles", chain.triangles), ("rhombi", chain.rhombi)):
        assert json.dumps([c.tolist() for c in derived]) == json.dumps(doc[key])


def test_v2_fixture_rewrites_as_v5(tmp_path):
    out = tmp_path / "v5.json"
    files.write_ledger(str(out), files.read_ledger(str(V2_UNION)))
    v5 = json.loads(out.read_text())
    v2 = json.loads(V2_UNION.read_text())
    assert v5["version"] == 5 and "triangles" not in v5 and "rhombi" not in v5
    assert v5["stats"] == v2["stats"]
    assert [m["type"] for m in v5["moves"]] == [m["type"] for m in v2["moves"]]
    # every split of versions 1-4 peeled at vertex 0
    assert [m["at"] for m in v5["moves"] if m["type"] == "split"] == [0, 0, 0]
    assert validate_ledger(files.read_ledger(str(out))).passed


def test_v4_document_splits_at_vertex_0():
    # a version 4 document has no ``at``: each split peels at vertex 0, as
    # the fallback's do, so the crown's ledger written as version 4 reads to
    # the same ledger, verdict and stats
    doc = files.ledger_to_obj(reduce_to_rhombi(crown_curve()))
    splits = [m for m in doc["moves"] if m["type"] == "split"]
    assert splits and all(m["at"] == 0 for m in splits)
    v4 = json.loads(json.dumps(doc))
    v4["version"] = 4
    for move in v4["moves"]:
        move.pop("at", None)
    read, report = files.ledger_from_obj(v4), validate_ledger(files.ledger_from_obj(doc))
    assert validate_ledger(read).entries == report.entries and report.passed
    assert read.stats == doc["stats"]
    assert files.ledger_to_obj(read) == doc
    # the position of a version 4 split is 0, whatever the document says
    curve = random_integral_curve(9, np.random.default_rng(5))
    local = files.ledger_to_obj(reduce_to_rhombi(curve))
    assert validate_ledger(files.ledger_from_obj(local)).passed
    read = files.ledger_from_obj({**local, "version": 4})
    assert {m.at for m in read.moves if m.kind == "split"} == {0}
    assert not validate_ledger(read).passed


def _pack_cells(ledger) -> int:
    """The cells that the pack pivots, recorded or swapped by a pack move, derive."""
    state, count = Replayer(ledger.initial), 0
    for move in ledger.moves:
        before = len(state.rhombus_cells)
        state.apply(move)
        if move.kind == "pack" or getattr(move, "stage", "") == "pack":
            count += len(state.rhombus_cells) - before
    return count


def test_v3_fixture_replays_as_its_v4_ledger(tmp_path):
    # version 3 recorded each pack swap as a pivot; on the v3 ledger's own
    # state, the pack move the producer makes there derives the same cells,
    # bit for bit and in order
    doc = json.loads(V3_WALK.read_text())
    assert doc["version"] == 3
    v3 = files.ledger_from_obj(doc)
    assert validate_ledger(v3).passed
    packs = [i for i, m in enumerate(v3.moves) if getattr(m, "stage", "") == "pack"]
    assert packs == list(range(packs[0], packs[0] + 6))  # one component's pack
    state = Replayer(v3.initial)
    for move in v3.moves[:packs[0]]:
        state.apply(move)
    _pack_component(state, v3.moves[packs[0]].component)
    for move in v3.moves[packs[-1] + 1:]:
        state.apply(move)
    v4 = CobordismLedger(v3.initial, state.moves, state.final_curve(), state.stats())
    assert [type(m) for m in v4.moves if m.kind == "pack"] == [PackMove]
    assert v4.stats == v3.stats
    assert v3.stats["pack_moves"] == 6 and _pack_cells(v3) == _pack_cells(v4) == 4
    old, new = assemble_from_ledger(v3), assemble_from_ledger(v4)
    for name in ("rhombus_cells", "triangles", "rhombi"):
        assert ([cell.tobytes() for cell in getattr(old, name)]
                == [cell.tobytes() for cell in getattr(new, name)])
    out = tmp_path / "v5.json"
    files.write_ledger(str(out), v3)
    assert json.loads(out.read_text())["version"] == 5
    assert validate_ledger(files.read_ledger(str(out))).passed


@pytest.mark.parametrize("edit, message", [
    (lambda doc, move: move.update(triangle=len(doc["triangles"])),
     "bad pentagon triangle: no triangle 5"),
    (lambda doc, move: move.update(triangle=-1), "bad pentagon triangle: no triangle -1"),
    (lambda doc, move: move.update(triangle=True),
     "bad pentagon triangle: expected an integer, got True"),
    (lambda doc, move: doc["triangles"][move["triangle"]].pop(),
     "bad triangle: expected three 3-d points"),
], ids=["index_past_end", "index_negative", "index_bool", "triangle_two_points"])
def test_v2_pentagon_needs_a_good_triangle(edit, message):
    doc = json.loads(V2_UNION.read_text())
    edit(doc, _first(doc, "pentagon"))
    with pytest.raises(files.FileFormatError) as info:
        files.ledger_from_obj(doc)
    assert str(info.value) == message


# ---------------------------------------------------------------------------
# round trip and one-field edits, on random curves


def _paths(obj, path=()):
    """The path of every value below the document root, containers included."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(
        obj, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _paths(value, path + (key,))


def _edited(doc: dict, path: tuple, value) -> dict:
    edited = json.loads(json.dumps(doc))
    holder = edited
    for key in path[:-1]:
        holder = holder[key]
    holder[path[-1]] = value
    return edited


def _values(original):
    """JSON values to put in place of ``original``; a number may also be nudged."""
    values = st.one_of(
        st.none(), st.booleans(), st.integers(-2, 10 ** 6), st.text(max_size=3),
        st.floats(allow_nan=True, allow_infinity=True),
        st.lists(st.floats(-2.0, 2.0), max_size=4),
        st.dictionaries(st.text(max_size=2), st.integers(-1, 3), max_size=2))
    if type(original) in (int, float):
        return st.one_of(st.floats(-1e-3, 1e-3).map(lambda d: original + d), values)
    return values


@settings(derandomize=True, max_examples=20, deadline=None)
@given(n=st.integers(3, 12), seed=st.integers(0, 2 ** 32 - 1), crown=st.booleans(),
       data=st.data())
def test_round_trip_and_one_field_edits(n, seed, crown, data):
    # with the crown beside it, the ledger has a pack too
    curve = random_integral_curve(n, np.random.default_rng(seed))
    if crown:
        curve = IntegralCurve(curve.components
                              + [crown_curve().components[0] + np.array([10.0, 0, 0])])
    ledger = reduce_to_rhombi(curve)
    text = files.dump_json(files.ledger_to_obj(ledger))
    read = files.ledger_from_obj(json.loads(text))
    assert validate_ledger(read).passed
    assert files.dump_json(files.ledger_to_obj(read)) == text
    # each apex coordinate, pack order entry and split position, then one
    # field anywhere: the reader refuses the document or the validator
    # reports, and neither raises anything else
    doc = json.loads(text)
    targets = [("moves", i, "apex", c) for i, move in enumerate(doc["moves"])
               if move["type"] == "pentagon" for c in range(3)]
    targets += [("moves", i, "order", j) for i, move in enumerate(doc["moves"])
                if move["type"] == "pack" for j in range(len(move["order"]))]
    targets += [("moves", i, "at") for i, move in enumerate(doc["moves"])
                if move["type"] == "split"]
    targets.append(data.draw(st.sampled_from(list(_paths(doc)))))
    for path in targets:
        original = doc
        for key in path:
            original = original[key]
        try:
            decoded = files.ledger_from_obj(_edited(doc, path, data.draw(_values(original))))
        except files.FileFormatError:
            continue
        validate_ledger(decoded)
