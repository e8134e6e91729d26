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
from rhombidome.cobordism import reduce_to_rhombi
from rhombidome.curve import IntegralCurve, random_integral_curve
from rhombidome.surface import MOVE_TABLE, assemble_from_ledger, validate_ledger

DATA = Path(__file__).parent / "data"
# the reduction of a closed 8-step cubic-lattice walk with a backtrack
# (splits, fix pivots, a degenerate pivot), a unit triangle and a unit square,
# made by an older reducer; its cells file holds the triangles and boundary
# rhombi that reducer recorded beside the moves
LATTICE_UNION = DATA / "ledger_lattice_union.json"
LATTICE_CELLS = DATA / "cells_lattice_union.json"


@pytest.fixture(scope="module")
def ledger():
    # planarize pivots, a pack, splits at vertex 0 and elsewhere, fix pivots
    # and pentagons
    return reduce_to_rhombi(crown_union(5))


def _first(doc, kind):
    return next(m for m in doc["moves"] if m["type"] == kind)


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
    (lambda doc: _first(doc, "split").update(at=True),
     "bad split at: expected an integer, got True", None),
    (lambda doc: _first(doc, "split").update(at=1.5),
     "bad split at: expected an integer, got 1.5", None),
    (lambda doc: _first(doc, "split").update(at="0"),
     "bad split at: expected an integer, got '0'", None),
    (lambda doc: _first(doc, "split").pop("at"), "malformed ledger document: 'at'", KeyError),
], ids=["pivot_new_2d", "split_z_inf",
        "point_is_string", "earlier_bad_point_first", "earlier_bad_int_first",
        "int_overflows_float", "apex_2d",
        "pivot_new_strings", "split_z_mixed_bool", "apex_bools", "curve_strings",
        "curve_bool", "order_object", "order_string", "order_true", "order_float",
        "at_true", "at_float", "at_string", "at_missing"])
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
    # a ledger without moves leaves its initial curve and derives no cell
    doc = files.ledger_to_obj(ledger)
    doc.update(moves=[], final_curve=doc["initial"])
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


# "4" and "5" are an older and the current version written as strings; v1-v4
# are the older versions, which are no longer read
@pytest.mark.parametrize("version", [True, 2.0, 3.0, "3", "4", "5", None, 6, 0] + [
    pytest.param(old, id=f"v{old}") for old in (1, 2, 3, 4)])
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


def test_lattice_union_derives_its_recorded_cells_bitwise():
    doc, recorded = json.loads(LATTICE_UNION.read_text()), json.loads(LATTICE_CELLS.read_text())
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
        assert json.dumps([c.tolist() for c in derived]) == json.dumps(recorded[key])


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
