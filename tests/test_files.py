"""Ledger and curve files: decode errors, the batched decode and round trips."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rhombidome import files
from rhombidome.cobordism import reduce_to_rhombi
from rhombidome.curve import IntegralCurve, random_integral_curve
from rhombidome.surface import PivotMove, Replayer, assemble_from_ledger, validate_ledger

DATA = Path(__file__).parent / "data"
V1_DIGON = DATA / "ledger_v1_collinear_digon.json"
# written by the version 2 writer for a closed 8-step cubic-lattice walk with
# a backtrack (splits, fix pivots, a degenerate pivot), a unit triangle and a
# unit square
V2_UNION = DATA / "ledger_v2_lattice_union.json"


@pytest.fixture(scope="module")
def ledger():
    return reduce_to_rhombi(random_integral_curve(9, np.random.default_rng(3)))


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
], ids=["triangle_nan", "pivot_new_2d", "split_z_inf",
        "point_is_string", "earlier_bad_point_first", "int_overflows_float", "apex_2d",
        "pivot_new_strings", "split_z_mixed_bool", "apex_bools", "curve_strings",
        "curve_bool"])
def test_decode_error_names_first_bad_item(ledger, edit, message, cause):
    doc = files.ledger_to_obj(ledger)
    edit(doc)
    with pytest.raises(files.FileFormatError) as info:
        files.ledger_from_obj(json.loads(json.dumps(doc)))
    assert str(info.value) == message
    assert type(info.value.__cause__) is (cause or type(None))


def test_well_formed_ledger_decodes_in_batches(ledger, monkeypatch):
    # the per-item decoders are the error path only (curves still use
    # ``_array``); the batched decode gives back the written ledger bit for bit
    seen = []
    array = files._array
    monkeypatch.setattr(files, "_point", lambda obj, what: seen.append(what))
    monkeypatch.setattr(files, "_array",
                        lambda obj, what: seen.append(what) or array(obj, what))
    decoded = files.ledger_from_obj(json.loads(files.dump_json(files.ledger_to_obj(ledger))))
    assert set(seen) == {"curve component"}
    for a, b in zip(decoded.moves, ledger.moves, strict=True):
        assert type(a) is type(b)
        for name, value in vars(b).items():
            assert np.array_equal(getattr(a, name), value)


def test_empty_cell_lists_decode(ledger):
    # a version 2 document without moves stores empty cell lists
    doc = files.ledger_to_obj(ledger)
    doc.update(version=2, moves=[], triangles=[], rhombi=[], final_curve=doc["initial"])
    decoded = files.ledger_from_obj(doc)
    chain = assemble_from_ledger(decoded)
    assert decoded.moves == [] and chain.triangles == [] and chain.rhombi == []


def test_ledger_document_records_no_cells(ledger):
    doc = files.ledger_to_obj(ledger)
    assert doc["version"] == 3 and "triangles" not in doc and "rhombi" not in doc
    pentagon = _first(doc, "pentagon")
    assert sorted(pentagon) == ["apex", "component", "type"]


@pytest.mark.parametrize("version", [True, 2.0, 3.0, "3", None, 4, 0])
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
    integer coordinates reads, validates and re-writes to the float bytes."""
    steps = np.array([[1, 0, 0], [0, 1, 0], [1, 0, 0], [0, 0, 1],
                      [0, -1, 0], [-1, 0, 0], [0, 0, -1], [-1, 0, 0]])
    ledger = reduce_to_rhombi(IntegralCurve([np.cumsum(steps, axis=0).astype(float)]))
    floats, ints, again = (tmp_path / name for name in ("f.json", "i.json", "a.json"))
    files.write_ledger(str(floats), ledger)
    doc = json.loads(floats.read_text())
    rewritten = {**doc, **{key: _integral_as_int(doc[key])
                           for key in ("initial", "moves", "final_curve")}}
    # some move points are lattice points too, not only the initial walk
    assert json.dumps(rewritten["moves"]) != json.dumps(doc["moves"])
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
    state = Replayer(ledger.initial)
    cells = [state.apply(move) for move in ledger.moves]
    assert any(isinstance(move, PivotMove) and cell is None
               for move, cell in zip(ledger.moves, cells))  # a degenerate pivot
    assert {m["type"] for m in doc["moves"]} >= {"close_triangle", "close_rhombus"}
    chain = assemble_from_ledger(ledger)
    # the shortest round-trip repr tells every float apart, -0.0 from 0.0 too
    for key, derived in (("triangles", chain.triangles), ("rhombi", chain.rhombi)):
        assert json.dumps([c.vertices.tolist() for c in derived]) == json.dumps(doc[key])


def test_v2_fixture_rewrites_as_v3(tmp_path):
    out = tmp_path / "v3.json"
    files.write_ledger(str(out), files.read_ledger(str(V2_UNION)))
    v3 = json.loads(out.read_text())
    v2 = json.loads(V2_UNION.read_text())
    assert v3["version"] == 3 and "triangles" not in v3 and "rhombi" not in v3
    assert v3["stats"] == v2["stats"]
    assert [m["type"] for m in v3["moves"]] == [m["type"] for m in v2["moves"]]
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
@given(n=st.integers(3, 12), seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_round_trip_and_one_field_edits(n, seed, data):
    ledger = reduce_to_rhombi(random_integral_curve(n, np.random.default_rng(seed)))
    text = files.dump_json(files.ledger_to_obj(ledger))
    read = files.ledger_from_obj(json.loads(text))
    assert validate_ledger(read).passed
    assert files.dump_json(files.ledger_to_obj(read)) == text
    # each apex coordinate, then one field anywhere: the reader refuses the
    # document or the validator reports, and neither raises anything else
    doc = json.loads(text)
    targets = [("moves", i, "apex", c) for i, move in enumerate(doc["moves"])
               if move["type"] == "pentagon" for c in range(3)]
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
