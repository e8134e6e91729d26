"""Ledger and curve files: decode errors, the batched decode and round trips."""

import json
from pathlib import Path

import numpy as np
import pytest

from rhombidome import files
from rhombidome.cobordism import reduce_to_rhombi
from rhombidome.curve import random_integral_curve
from rhombidome.surface import validate_ledger

V1_DIGON = Path(__file__).parent / "data" / "ledger_v1_collinear_digon.json"


@pytest.fixture(scope="module")
def ledger():
    return reduce_to_rhombi(random_integral_curve(9, np.random.default_rng(3)))


def _first(doc, kind):
    return next(m for m in doc["moves"] if m["type"] == kind)


def _nan_then_bad_int(doc):
    _first(doc, "pivot")["new"][0] = float("nan")
    doc["moves"][-1]["component"] = 1.5


# Each message is the per-item decoder's, in the package's own words: a value
# that does not convert to floats says what was expected, as a wrong shape
# does, and keeps the conversion error as its cause.
@pytest.mark.parametrize("edit, message, cause", [
    (lambda doc: doc["triangles"][0][1].__setitem__(2, float("nan")),
     "bad triangle: non-finite coordinate", None),
    (lambda doc: doc["rhombi"][0][2].pop(),
     "bad rhombus: expected a list of 3-d points", ValueError),
    (lambda doc: _first(doc, "pivot").__setitem__("new", [0.0, 1.0]),
     "bad pivot new: expected a 3-d point", None),
    (lambda doc: _first(doc, "split")["z"].__setitem__(1, float("inf")),
     "bad split z: non-finite coordinate", None),
    (lambda doc: _first(doc, "pivot").__setitem__("new", "0,0,1"),
     "bad pivot new: expected a 3-d point", ValueError),
    (_nan_then_bad_int, "bad pivot new: non-finite coordinate", None),
    (lambda doc: _first(doc, "pivot")["new"].__setitem__(0, 10 ** 400),
     "bad pivot new: expected a 3-d point", OverflowError),
], ids=["triangle_nan", "rhombus_ragged", "pivot_new_2d", "split_z_inf",
        "point_is_string", "earlier_bad_point_first", "int_overflows_float"])
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
    for cells in ("triangles", "final_rhombi"):
        for a, b in zip(getattr(decoded, cells), getattr(ledger, cells), strict=True):
            assert np.array_equal(a.vertices, b.vertices)


def test_empty_cell_lists_decode(ledger):
    doc = files.ledger_to_obj(ledger)
    doc.update(moves=[], triangles=[], rhombi=[], final_curve=doc["initial"])
    decoded = files.ledger_from_obj(doc)
    assert decoded.moves == [] and decoded.triangles == [] and decoded.final_rhombi == []


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
