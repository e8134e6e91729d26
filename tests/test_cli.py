import json
from pathlib import Path

import numpy as np
import pytest

from conftest import regular_polygon_curve
from rhombidome import files
from rhombidome.cli import main
from rhombidome.cobordism import reduce_to_rhombi
from rhombidome.curve import random_integral_curve
from rhombidome.surface import validate_ledger


@pytest.fixture
def pentagon_file(tmp_path):
    path = tmp_path / "pentagon.json"
    files.write_curve(str(path), regular_polygon_curve(5))
    return str(path)


def test_reduce_pentagon_exit_zero(pentagon_file, tmp_path, capsys):
    out = tmp_path / "ledger.json"
    code = main(["reduce", "--in", pentagon_file, "--out", str(out)])
    assert code == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed["stats"]["k"] == 2
    assert printed["valid"] is True
    ledger = files.read_ledger(str(out))
    assert validate_ledger(ledger).passed


def test_reduce_rhombus_identity(tmp_path, unit_square, capsys):
    infile = tmp_path / "square.json"
    files.write_curve(str(infile), unit_square)
    out = tmp_path / "out.json"
    assert main(["reduce", "--in", str(infile), "--out", str(out)]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed["stats"]["k"] == 1


def test_reduce_rejects_fractional_edge(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "version": 1,
        "components": [[[0, 0, 0], [1.5, 0, 0], [0.75, 1.0, 0]]],
    }))
    code = main(["reduce", "--in", str(bad), "--out", str(tmp_path / "x.json")])
    assert code == 2


def test_reduce_rejects_malformed_json(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    assert main(["reduce", "--in", str(bad), "--out", str(tmp_path / "x.json")]) == 2


def test_validate_roundtrip_and_fault(tmp_path, pentagon_file, capsys):
    out = tmp_path / "ledger.json"
    assert main(["reduce", "--in", pentagon_file, "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["validate", "--in", str(out)]) == 0
    capsys.readouterr()
    # corrupt one apex coordinate: the boundary rhombi are derived from it
    doc = json.loads(out.read_text())
    next(m for m in doc["moves"] if m["type"] == "pentagon")["apex"][0] += 1e-3
    out.write_text(json.dumps(doc))
    assert main(["validate", "--in", str(out)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert not report["passed"]
    assert main(["validate", "--in", pentagon_file]) == 2  # a curve, not a ledger


def test_ledger_roundtrip_bytes(tmp_path):
    rng = np.random.default_rng(50)
    ledger = reduce_to_rhombi(random_integral_curve(13, rng))
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    files.write_ledger(str(first), ledger)
    files.write_ledger(str(second), files.read_ledger(str(first)))
    assert first.read_bytes() == second.read_bytes()


def _first_pivot(doc):
    return next(m for m in doc["moves"] if m["type"] == "pivot")


V1_DIGON = Path(__file__).parent / "data" / "ledger_v1_collinear_digon.json"
V2_UNION = Path(__file__).parent / "data" / "ledger_v2_lattice_union.json"


@pytest.mark.parametrize("edit", [
    lambda doc: doc["moves"][0].update(component="x"),
    lambda doc: doc["moves"].__setitem__(0, [1, 2]),
    lambda doc: doc.update(stats=None),
    lambda doc: _first_pivot(doc)["new"].__setitem__(0, float("nan")),
    lambda doc: doc.update(moves={}),
    # versions 1 and 2 store cell arrays; the object must still be an array
    lambda doc: doc.update(json.loads(V2_UNION.read_text()), triangles={}),
    lambda doc: doc.update(json.loads(V2_UNION.read_text()), rhombi={}),
    lambda doc: doc.update(version=True),
    lambda doc: doc.update(version=3.0),
], ids=["component_not_int", "move_not_object", "stats_null", "pivot_point_nan",
        "moves_object", "triangles_object", "rhombi_object", "version_true",
        "version_float"])
def test_validate_malformed_ledger_exits_2(tmp_path, capsys, edit):
    ledger = reduce_to_rhombi(random_integral_curve(9, np.random.default_rng(3)))
    doc = files.ledger_to_obj(ledger)
    edit(doc)
    path = tmp_path / "ledger.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", "--in", str(path)]) == 2
    assert "unexpected error" not in capsys.readouterr().err


def test_v1_ledger_validates_and_migrates(tmp_path, capsys):
    # written by the version 1 writer for the collinear out-and-back digon
    # (n = 6), whose degenerate pivots v1 recorded with seams
    v1 = json.loads(V1_DIGON.read_text())
    assert v1["version"] == 1 and v1["seams"]
    assert any(m["type"] == "pivot" and m["degenerate"] for m in v1["moves"])
    assert main(["validate", "--in", str(V1_DIGON)]) == 0
    assert json.loads(capsys.readouterr().out)["passed"]
    out = tmp_path / "v3.json"
    files.write_ledger(str(out), files.read_ledger(str(V1_DIGON)))
    v3 = json.loads(out.read_text())
    assert v3["version"] == 3
    assert not {"seams", "triangles", "rhombi"} & v3.keys()
    assert v3["stats"] == v1["stats"]
    assert validate_ledger(files.read_ledger(str(out))).passed


def test_curve_version_true_exits_2(tmp_path, capsys):
    path = tmp_path / "curve.json"
    path.write_text(json.dumps({"version": True, "components": [[[0, 0, 0], [1, 0, 0],
                                                                  [0.5, 0.75 ** 0.5, 0]]]}))
    assert main(["reduce", "--in", str(path), "--out", str(tmp_path / "x.json")]) == 2
    assert "unsupported curve document" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["reduce", "--in", "{curve}", "--out", "{missing}/ledger.json"],
    ["reduce", "--in", "{curve}", "--out", "{tmp}/ledger.json", "--off", "{missing}/dome.off"],
    ["census", "--n-min", "5", "--n-max", "5", "--samples", "1", "--csv", "{missing}/c.csv"],
], ids=["reduce_out", "reduce_off", "census_csv"])
def test_unwritable_output_exits_2(tmp_path, pentagon_file, capsys, argv):
    # a path in a missing directory is an input error, reported in the OS's words
    paths = {"curve": pentagon_file, "tmp": str(tmp_path), "missing": str(tmp_path / "no")}
    assert main([arg.format(**paths) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert "No such file or directory" in err and "unexpected error" not in err


def test_off_export(tmp_path, capsys):
    rng = np.random.default_rng(51)
    infile = tmp_path / "curve.json"
    files.write_curve(str(infile), random_integral_curve(9, rng))
    out = tmp_path / "ledger.json"
    off = tmp_path / "dome.off"
    assert main(["reduce", "--in", str(infile), "--out", str(out),
                 "--off", str(off)]) == 0
    lines = off.read_text().splitlines()
    assert lines[0] == "OFF"
    n_vert, n_face, _ = map(int, lines[2].split())
    assert n_vert > 0 and n_face > 0
    assert len(lines) == 3 + n_vert + n_face


def test_moduli_exit_codes(capsys):
    assert main(["moduli", "dims", "--surface", "polygon:k=4"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["scheme_dim"] == 5 and report["moduli_dim"] == 2
    assert main(["moduli", "dims", "--surface", "antiprism_band:k=4"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["tangent_dim"] >= 3
    assert main(["moduli", "isotropy", "--surface", "antiprism_band:k=4",
                 "--trials", "3"]) == 0
    capsys.readouterr()
    assert main(["moduli", "rank", "--surface", "three_rhombus_pants"]) == 0
    capsys.readouterr()
    assert main(["moduli", "dims", "--surface", "nonexistent"]) == 2
    assert capsys.readouterr().err == "rhombidome: unknown catalog surface 'nonexistent'\n"
    assert main(["moduli", "isotropy", "--surface", "triangle_disk:k=4"]) == 2
    assert capsys.readouterr().err == (
        "rhombidome: catalog surface 'triangle_disk' takes no parameter k\n")
    assert main(["moduli", "dims", "--surface", "antiprism_band:k=2"]) == 2
    assert capsys.readouterr().err == "rhombidome: antiprism_band needs k >= 3\n"
    for what in ("isotropy", "rank"):
        assert main(["moduli", what, "--surface", "polygon:k=4"]) == 2
        assert capsys.readouterr().err == f"rhombidome: {what} needs a catalog surface\n"
    assert main(["moduli", "rank", "--surface", "pentagon_pants"]) == 1
    for trials in ("0", "-3"):
        assert main(["moduli", "isotropy", "--surface", "antiprism_band:k=4",
                     "--trials", trials]) == 2
    assert capsys.readouterr().out == ""


def test_moduli_benchmark_surface_dimension(capsys):
    """The moduli benchmark's surface keeps its 29-dimensional tangent space."""
    assert main(["moduli", "dims", "--surface", "antiprism_band:k=16"]) == 0
    assert json.loads(capsys.readouterr().out)["tangent_dim"] == 29
    assert main(["moduli", "isotropy", "--surface", "antiprism_band:k=16",
                 "--trials", "1", "--seed", "3"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["tangent_dims"] == [29] and report["passed"]


@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf", "1e-9"])
def test_bad_tolerance_is_usage_error(tol, pentagon_file, tmp_path, capsys):
    """The threshold is fixed at geom.EPS: any --tol, good value or bad, is refused."""
    ledger = str(tmp_path / "ledger.json")
    assert main(["reduce", "--in", pentagon_file, "--out", ledger]) == 0
    capsys.readouterr()
    for argv in (["reduce", "--in", pentagon_file, "--out", ledger],
                 ["validate", "--in", ledger],
                 ["moduli", "dims", "--surface", "polygon:k=4"],
                 ["census", "--samples", "0", "--csv", str(tmp_path / "c.csv")]):
        for args in (["--tol", tol, *argv], [*argv, "--tol", tol]):
            assert main(args) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "usage:" in captured.err


def test_census_rows_and_budget(tmp_path, capsys):
    csv_path = tmp_path / "census.csv"
    assert main(["census", "--n-min", "6", "--n-max", "6", "--samples", "10",
                 "--seed", "1", "--csv", str(csv_path)]) == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0].startswith("schema_version,")
    assert len(lines) == 11
    for line in lines[1:]:
        row = dict(zip(lines[0].split(","), line.split(",")))
        assert int(row["k"]) <= 36  # 6^2 + 2*6 - 12
        assert int(row["budget"]) == 36


def test_census_without_rows_is_usage_error(tmp_path, capsys):
    csv_path = tmp_path / "empty.csv"
    for samples in ("0", "-2"):
        assert main(["census", "--n-min", "6", "--n-max", "6", "--samples", samples,
                     "--csv", str(csv_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "rhombidome: census needs --samples >= 1 (or 0 with --pentagon-fixture)\n")
    assert main(["census", "--samples", "-1", "--pentagon-fixture",
                 "--csv", str(csv_path)]) == 2
    assert not csv_path.exists()


def test_census_pentagon_fixture(tmp_path, capsys):
    csv_path = tmp_path / "fixture.csv"
    assert main(["census", "--n-min", "5", "--n-max", "5", "--samples", "0",
                 "--pentagon-fixture", "--csv", str(csv_path)]) == 0
    lines = csv_path.read_text().strip().splitlines()
    header = lines[0].split(",")
    row = dict(zip(header, lines[1].split(",")))
    assert row["n"] == "5" and row["k"] == "2"


def test_census_usage_error(tmp_path):
    assert main(["census", "--n-min", "3", "--n-max", "4",
                 "--csv", str(tmp_path / "x.csv")]) == 2
