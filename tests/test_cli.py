import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import crown_curve, crown_union, regular_polygon_curve
from rhombidome import cobordism, files, moduli, surface
from rhombidome.cli import MAX_SURFACE_K, build_parser, main, parse_surface_spec
from rhombidome.cobordism import reduce_to_rhombi
from rhombidome.curve import random_integral_curve
from rhombidome.surface import assemble_from_ledger, validate_ledger


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


def _first(doc, kind):
    return next(m for m in doc["moves"] if m["type"] == kind)


_BAD_ORDER = "bad pack order: expected a list of integers"
_BAD_AT = "bad split at: expected an integer"


# ``message``: a part of what validate prints, if the edit pins one
@pytest.mark.parametrize("edit, message", [
    (lambda doc: doc["moves"][0].update(component="x"), ""),
    (lambda doc: doc["moves"].__setitem__(0, [1, 2]), ""),
    (lambda doc: doc.update(stats=None), ""),
    (lambda doc: _first(doc, "pivot")["new"].__setitem__(0, float("nan")), ""),
    (lambda doc: doc.update(moves={}), ""),
    (lambda doc: doc.update(version=True), ""),
    (lambda doc: doc.update(version=3.0), ""),
    (lambda doc: _first(doc, "pack").update(order=5), _BAD_ORDER),
    (lambda doc: _first(doc, "pack")["order"].__setitem__(0, "0"), _BAD_ORDER),
    (lambda doc: _first(doc, "pack")["order"].__setitem__(1, True), _BAD_ORDER),
    (lambda doc: _first(doc, "pack")["order"].__setitem__(0, 3.0), _BAD_ORDER),
    # only version 5 is read
    (lambda doc: doc.update(version=3), "unsupported ledger document"),
    (lambda doc: _first(doc, "split").update(at=True), _BAD_AT),
    (lambda doc: _first(doc, "split").update(at=1.5), _BAD_AT),
    (lambda doc: _first(doc, "split").update(at="0"), _BAD_AT),
    # a move ``type`` the format has no decoder for
    (lambda doc: doc["moves"][0].update(type="seam"), "bad move: {"),
    (lambda doc: doc["moves"][0].pop("type"), "bad move: {"),
    (lambda doc: doc["moves"][0].update(type=["pivot"]), "bad move: {"),
], ids=["component_not_int", "move_not_object", "stats_null", "pivot_point_nan",
        "moves_object", "version_true",
        "version_float", "order_not_array", "order_string", "order_true", "order_float",
        "pack_in_v3", "at_true", "at_float", "at_string", "type_unknown", "type_missing",
        "type_not_string"])
def test_validate_malformed_ledger_exits_2(tmp_path, capsys, edit, message):
    # the crown's ledger has a pack move
    ledger = reduce_to_rhombi(crown_union(5))
    doc = files.ledger_to_obj(ledger)
    edit(doc)
    path = tmp_path / "ledger.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", "--in", str(path)]) == 2
    err = capsys.readouterr().err
    assert "unexpected error" not in err and message in err


def test_curve_version_true_exits_2(tmp_path, capsys):
    path = tmp_path / "curve.json"
    path.write_text(json.dumps({"version": True, "components": [[[0, 0, 0], [1, 0, 0],
                                                                  [0.5, 0.75 ** 0.5, 0]]]}))
    assert main(["reduce", "--in", str(path), "--out", str(tmp_path / "x.json")]) == 2
    assert "unsupported curve document" in capsys.readouterr().err


# an integer literal past Python's 4,300-digit conversion limit is no JSON
# number the decoder can read
@pytest.mark.parametrize("content", [b"\xff\xfe{}", b"[" * 200000, b"[" + b"1" * 5000 + b"]"],
                         ids=["not_utf8", "nested_too_deep", "int_too_long"])
@pytest.mark.parametrize("command", ["reduce", "validate"])
def test_unreadable_json_exits_2(tmp_path, capsys, command, content):
    path = tmp_path / "doc.json"
    path.write_bytes(content)
    argv = [command, "--in", str(path)]
    if command == "reduce":
        argv += ["--out", str(tmp_path / "x.json")]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("rhombidome: not valid JSON: ")


def test_reduce_overflowing_edge_exits_2(tmp_path, capsys):
    # the first edge, from x = 1e308 to x = -1e308, has length inf
    path = tmp_path / "curve.json"
    path.write_text(json.dumps({"version": 1, "components": [
        [[1e308, 0, 0], [-1e308, 0, 0], [0, 0, 0]]]}))
    assert main(["reduce", "--in", str(path), "--out", str(tmp_path / "x.json")]) == 2
    assert capsys.readouterr().err == (
        "rhombidome: edge 0 of component 0 has non-integer length inf\n")


def test_reduce_refuses_too_many_unit_edges(tmp_path, capsys):
    # a 3-4-5 triangle scaled by 1e9 would subdivide into 1.2e10 unit edges
    path = tmp_path / "curve.json"
    path.write_text(json.dumps({"version": 1, "components": [
        [[0, 0, 0], [3e9, 0, 0], [3e9, 4e9, 0]]]}))
    start = time.perf_counter()
    assert main(["reduce", "--in", str(path), "--out", str(tmp_path / "x.json")]) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == (
        "rhombidome: curve has 12000000000 unit edges, more than the limit of 1000000\n")


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


@pytest.mark.parametrize("curve", [
    crown_curve(),
    # its chain has two vertex ids, 496 and 540, at the same coordinates
    random_integral_curve(200, np.random.default_rng(1)),
], ids=["crown", "random_200"])
def test_off_export(tmp_path, capsys, curve):
    # the crown's pack derives pivot cells
    infile = tmp_path / "curve.json"
    files.write_curve(str(infile), curve)
    out = tmp_path / "ledger.json"
    off = tmp_path / "dome.off"
    assert main(["reduce", "--in", str(infile), "--out", str(out),
                 "--off", str(off)]) == 0
    lines = off.read_text().splitlines()
    assert lines[0] == "OFF"
    n_vert, n_face, _ = map(int, lines[2].split())
    assert n_vert > 0 and n_face > 0
    assert len(lines) == 3 + n_vert + n_face
    # the faces, read back as coordinates, are the triangles and then each
    # pivot cell's two halves along its first diagonal, in chain order
    points = np.array([line.split() for line in lines[3:3 + n_vert]], dtype=float)
    faces = points[[list(map(int, line.split()[1:])) for line in lines[3 + n_vert:]]]
    chain = assemble_from_ledger(files.read_ledger(str(out)))
    halves = chain.rhombus_cells[:, [[0, 1, 2], [0, 2, 3]]].reshape(-1, 3, 3)
    assert len(chain.triangles) > 0 and len(halves) > 0
    assert np.array_equal(faces, np.concatenate([chain.triangles, halves]))
    # one vertex per vertex id a face uses, even where two share coordinates
    used = np.concatenate([chain.triangle_ids.ravel(), chain.rhombus_cell_ids.ravel()])
    assert n_vert == len(np.unique(used))


def test_reduce_off_replays_once(tmp_path, monkeypatch, capsys):
    # the OFF export takes the chain that validation assembled
    infile = tmp_path / "curve.json"
    files.write_curve(str(infile), random_integral_curve(9, np.random.default_rng(51)))
    out, off = tmp_path / "ledger.json", tmp_path / "dome.off"
    calls = []

    def counted(ledger):
        calls.append(ledger)
        return assemble_from_ledger(ledger)

    monkeypatch.setattr(surface, "assemble_from_ledger", counted)
    assert main(["reduce", "--in", str(infile), "--out", str(out),
                 "--off", str(off)]) == 0
    assert len(calls) == 1
    # the bytes an export of a second replay writes
    chain = assemble_from_ledger(files.read_ledger(str(out)))
    again = tmp_path / "again.off"
    files.export_off(str(again), chain)
    assert off.read_bytes() == again.read_bytes()


def test_reduce_failure_exits_1_and_writes_nothing(pentagon_file, tmp_path, monkeypatch,
                                                   capsys):
    def failing(curve):
        raise RuntimeError("pivot did not descend")

    monkeypatch.setattr(cobordism, "reduce_to_rhombi", failing)
    out = tmp_path / "ledger.json"
    assert main(["reduce", "--in", pentagon_file, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "rhombidome: reduction failed: pivot did not descend\n"
    assert not out.exists()


def test_reduce_rhombus_budget_overrun_exits_1(pentagon_file, tmp_path, monkeypatch,
                                              capsys):
    monkeypatch.setattr(cobordism, "component_budget", lambda n: 1)
    out = tmp_path / "ledger.json"
    assert main(["reduce", "--in", pentagon_file, "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "rhombidome: reduction failed: component 0 used 2 rhombi, budget 1\n")
    assert not out.exists()


def test_reduce_invalid_ledger_exits_1_and_names_each_failure(pentagon_file, tmp_path,
                                                              monkeypatch, capsys):
    # two of the report's entries fail; the ledger is still written
    def failing(ledger):
        report = validate_ledger(ledger)
        for i in (1, 3):
            report.entries[i] = (report.entries[i][0], False, f"tampered {i}")
        return report

    monkeypatch.setattr(surface, "validate_ledger", failing)
    out = tmp_path / "ledger.json"
    assert main(["reduce", "--in", pentagon_file, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out)["valid"] is False
    names = [name for name, _, _ in validate_ledger(files.read_ledger(str(out))).entries]
    assert captured.err == ("rhombidome: ledger failed validation\n"
                            f"rhombidome:   {names[1]}: tampered 1\n"
                            f"rhombidome:   {names[3]}: tampered 3\n")


def test_one_parser_serves_every_call(tmp_path, pentagon_file, capsys):
    assert build_parser() is build_parser()
    ledger = str(tmp_path / "ledger.json")
    assert main(["reduce", "--in", pentagon_file, "--out", ledger]) == 0
    capsys.readouterr()
    assert main(["validate"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage:" in captured.err
    assert "the following arguments are required: --in" in captured.err
    assert main(["validate", "--in", ledger]) == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True
    assert main(["moduli", "dims", "--surface", "polygon:k=4"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["scheme_dim"] == 5 and report["passed"] is True
    assert main(["moduli", "dims", "--surface", "nonexistent"]) == 2
    assert capsys.readouterr().err == "rhombidome: unknown catalog surface 'nonexistent'\n"


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


@pytest.mark.parametrize("what", ["dims", "isotropy", "rank"])
@pytest.mark.parametrize("seed", ["-1", "-7919", "x", "1.5"])
def test_moduli_refuses_a_negative_seed(capsys, what, seed):
    """A moduli --seed below 0 (or not an integer) is refused at parse time,
    naming the flag, before any surface is built."""
    assert main(["moduli", what, "--surface", "three_rhombus_pants", "--seed", seed]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(
        f"error: argument --seed: expected a non-negative integer, got {seed!r}\n")


def test_moduli_refuses_a_k_above_the_limit(capsys, monkeypatch):
    """k = MAX_SURFACE_K + 1, or a k that is no integer, is a usage error,
    refused before anything is built."""
    def build(*args, **kwargs):
        raise AssertionError("built a surface past the limit")
    monkeypatch.setattr(surface, "catalog", build)
    monkeypatch.setattr(moduli, "random_polygon_point", build)
    k = MAX_SURFACE_K + 1
    for name in ("polygon", "antiprism_band"):
        for what in ("dims", "isotropy", "rank"):
            assert main(["moduli", what, "--surface", f"{name}:k={k}"]) == 2
            assert capsys.readouterr().err == (
                f"rhombidome: surface parameter k={k} is more than the limit of 500\n")
    # a k that int() does not read is named as it was given
    for value in ("x", "1e3", "", "16:foo"):
        assert main(["moduli", "dims", "--surface", f"polygon:k={value}"]) == 2
        assert capsys.readouterr().err == (
            f"rhombidome: surface parameter k={value!r} is not an integer\n")
    monkeypatch.undo()
    assert parse_surface_spec(f"polygon:k={MAX_SURFACE_K}") == ("polygon", MAX_SURFACE_K)
    kind, band = parse_surface_spec(f"antiprism_band:k={MAX_SURFACE_K}")
    assert kind == "surface" and band.vertex_count == 2 * MAX_SURFACE_K


def test_moduli_benchmark_surface_dimension(capsys):
    """The moduli benchmark's surface keeps its 29-dimensional tangent space."""
    assert main(["moduli", "dims", "--surface", "antiprism_band:k=16"]) == 0
    assert json.loads(capsys.readouterr().out)["tangent_dim"] == 29
    assert main(["moduli", "isotropy", "--surface", "antiprism_band:k=16",
                 "--trials", "1", "--seed", "3"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["tangent_dims"] == [29] and report["passed"]


@pytest.mark.parametrize("args", [
    ["isotropy", "--surface", "antiprism_band:k=16", "--trials", "1"],
    ["rank", "--surface", "three_rhombus_pants"],
    ["dims", "--surface", "pentagon_pants"]])
def test_moduli_item_validates_its_surface_once(monkeypatch, capsys, args):
    calls = []
    validate = surface.GraphSurface.validate
    monkeypatch.setattr(surface.GraphSurface, "validate",
                        lambda s: calls.append(s.name) or validate(s))
    assert main(["moduli", *args]) == 0
    assert json.loads(capsys.readouterr().out)["passed"]
    assert len(calls) == 1


# Run in a fresh interpreter: this process imported scipy long ago.
_SCIPY_FREE = """
import json, sys
from rhombidome.cli import main
curve, work = sys.argv[1:]
codes = [main(["reduce", "--in", curve, "--out", work + "/ledger.json",
               "--off", work + "/chain.off"]),
         main(["validate", "--in", work + "/ledger.json"]),
         main(["census", "--n-min", "6", "--n-max", "6", "--samples", "2",
               "--csv", work + "/census.csv"])]
scipy = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
import rhombidome
resolved = callable(rhombidome.moduli.isotropy_certificate)
from rhombidome import moduli
codes.append(main(["moduli", "dims", "--surface", "polygon:k=4"]))
print(json.dumps({"codes": codes, "scipy": scipy, "resolved": resolved,
                  "same": moduli is rhombidome.moduli}))
"""


def test_reduction_commands_load_no_scipy(tmp_path):
    repo = Path(__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-c", _SCIPY_FREE, str(repo / "tests" / "data" / "curve_crown_12.json"),
         str(tmp_path)],
        env={**os.environ, "PYTHONPATH": str(repo / "src")},
        capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.splitlines()[-1])
    assert result == {"codes": [0, 0, 0, 0], "scipy": [], "resolved": True, "same": True}


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


def test_cli_smoke_script(tmp_path):
    # the console-script commands CI runs, through a `rhombidome` shim for
    # `python -m rhombidome.cli` on PATH
    repo = Path(__file__).resolve().parents[1]
    shim = tmp_path / "bin" / "rhombidome"
    shim.parent.mkdir()
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m rhombidome.cli "$@"\n')
    shim.chmod(0o755)
    env = {**os.environ, "PATH": f"{shim.parent}{os.pathsep}{os.environ['PATH']}",
           "PYTHONPATH": str(repo / "src"), "PYTHON": sys.executable}
    run = subprocess.run(["bash", str(repo / "tests" / "cli_smoke.sh"), str(tmp_path)],
                         env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr[-2000:]
