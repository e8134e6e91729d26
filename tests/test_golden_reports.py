"""Golden validate reports: ``rhombidome validate`` prints the same report
for fixed ledgers, and ``reduce --off`` writes the same mesh.

The ledgers come from four of the stored curves of ``test_golden_ledgers.py``,
so no ``cos`` or ``sin`` of the host goes into them.  Besides the four passing
ledgers there is one tampered ledger per kind of edit of the tamper sweep
(``test_surface._tamper_edits``, run on the stored crown union), whose
reports name the failing replay step or budget key, and two hand-built
ledgers that pass: regression pins of former false refusals by a chain
identity on a 1e-9 coordinate grid, one whose degenerate pivot has
neighbours in two grid cells, and one beyond the grid's int64 keys.
"""

import functools
import hashlib
import re
from pathlib import Path

import pytest

from rhombidome import files
from rhombidome.cli import main
from rhombidome.cobordism import reduce_to_rhombi
from rhombidome.curve import IntegralCurve
from rhombidome.surface import (
    CobordismLedger,
    PivotMove,
    Replayer,
    assemble_from_ledger,
    validate_ledger,
)
from test_surface import _tamper_edits, _tampered

DATA = Path(__file__).resolve().parent / "data"
CURVES = ("random_24", "crown_12", "cubic_walk_18", "crown_union_3")


def _stored_ledger(name: str) -> CobordismLedger:
    return reduce_to_rhombi(files.read_curve(str(DATA / f"curve_{name}.json")))


def _replayed(initial: IntegralCurve, moves: list) -> CobordismLedger:
    """The ledger of ``moves`` on ``initial``, with the replay's own final
    curve and stats."""
    state = Replayer(initial)
    for move in moves:
        state.apply(move)
    return CobordismLedger(initial=initial, moves=state.moves,
                           final_curve=state.final_curve(), stats=state.stats())


def _tamper_docs():
    """(kind, document): the first edit of each kind of the tamper sweep on
    the stored crown union's ledger and its prefix of pivots and packs; a
    kind is an edit's name with every integer in it replaced by ``#``."""
    full = _stored_ledger("crown_union_3")
    prefix = full.moves[:next(i for i, m in enumerate(full.moves)
                              if m.kind not in ("pivot", "pack"))]
    docs, seen = {}, set()
    for name, doc, path, value in _tamper_edits(
            files.ledger_to_obj(full),
            files.ledger_to_obj(_replayed(full.initial.copy(), prefix))):
        kind = re.sub(r"-?\d+", "#", name)
        if kind not in seen:
            seen.add(kind)
            docs[f"tamper {kind}"] = _tampered(doc, path, value)
    return docs


def _chain_identity_docs():
    """Two correct ledgers that a chain identity on a 1e-9 coordinate grid
    refused, pinned as regressions.

    A 4-gon with vertex 2 at 0.6 EPS from vertex 0: the pivot of vertex 1
    is degenerate and derives a fold, not a cell, though its neighbours
    fell in two grid cells.  A unit square at x = 1e10, beyond the int64
    keys of that grid.
    """
    near = IntegralCurve([[[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [6e-10, 0.0, 0.0],
                           [0.0, 1.0, 0.0]]])
    far = IntegralCurve([[[1e10, 0.0, 0.0], [1e10 + 1, 0.0, 0.0],
                          [1e10 + 1, 1.0, 0.0], [1e10, 1.0, 0.0]]])
    return {
        "straddling degenerate pivot": files.ledger_to_obj(
            _replayed(near, [PivotMove(0, 1, [0.0, 0.0, 1.0])])),
        "off the grid": files.ledger_to_obj(reduce_to_rhombi(far)),
    }


@functools.cache
def _documents():
    docs = {f"golden {name}": files.ledger_to_obj(_stored_ledger(name)) for name in CURVES}
    return {**docs, **_tamper_docs(), **_chain_identity_docs()}


# sha256 of the stdout of ``rhombidome validate`` on each document, and its
# exit code
GOLDEN = {
    "golden random_24":
        (0, "8e2dd73eb1e4c4864999f4775c9f1394da60ca8e26cab79edff45b89825af8db"),
    "golden crown_12":
        (0, "99e5d4b264c5c4d30980eb26084f9a750ef272ad60514810ce489a18246e219d"),
    "golden cubic_walk_18":
        (0, "897e7fadc99a94e856717a85537fd81ef5fb40523dacec8e151595a088d0b56a"),
    "golden crown_union_3":
        (0, "52721fc52403e90c0dfef880a46e58da6d18f99085a36824457436cee1520791"),
    "tamper move # new":
        (1, "a1ff402fd671dab970f372c675c83d24d4dcfcf3344cbb6365ad57f96507ff4f"),
    "tamper move # order swap # #":
        (1, "d5afbaeb0b4f0862ca47b233c5cdcf4a5801a99854b48eea029e9af6516d3740"),
    "tamper move # order short":
        (1, "35f370195958d3647a075a05b00febc3abc72fe6de65578d226e79353ce65129"),
    "tamper move # order long":
        (1, "35f370195958d3647a075a05b00febc3abc72fe6de65578d226e79353ce65129"),
    "tamper move # order duplicate":
        (1, "35f370195958d3647a075a05b00febc3abc72fe6de65578d226e79353ce65129"),
    "tamper move # order #":
        (1, "35f370195958d3647a075a05b00febc3abc72fe6de65578d226e79353ce65129"),
    "tamper move # order n":
        (1, "35f370195958d3647a075a05b00febc3abc72fe6de65578d226e79353ce65129"),
    "tamper move # z":
        (1, "c59461e557b53162543626d318d0c9f9aa5784237d72bdb41545587b814579b2"),
    "tamper move # at=#":
        (1, "c701476311084b11d26e25d8d2806785539aa20ef692e1e796d89a8537e26c0d"),
    "tamper move # apex[#]":
        (1, "ce1e9422d3fc0655d2aefe0e2991240144bf98741cb1ac9cf4e6efb7f40ae7bc"),
    "tamper initial vertex":
        (1, "d72b62fc883bd877b106644b988ce42f2051d4f6300940c9c5e571197ed3a42c"),
    "tamper final vertex":
        (1, "82b98af75b1d0b7829d1dc9ed82bb3786e457dba15d475debe9ce6a2d39a9084"),
    "tamper move # component=#":
        (1, "a741f716e45021cafcf4a4bfd83a90640be8a44014022d92dba0cef03e7c26ea"),
    "tamper move # new_component=#":
        (1, "4b824c0492422085b1ddbd357ed50b81641ca04a8a52a0d6b9dc9ccd9b2bb06c"),
    "tamper move # vertex=#":
        (1, "13f347247d3b594ef074ef3c35b7fb1b01fdf6d0efac4063dcad12c3d55bf8e5"),
    "tamper stats n":
        (1, "3dd23c66f863c6b39a68dca3ee2e40fc8f05ab9956c29b2879e9a0bf407c1cfd"),
    "tamper stats k":
        (1, "dc853de45640efc5f1dc793c8c83081a63b3c027b37951b620117698803677dc"),
    "tamper stats budget":
        (1, "bdd2325c3b6cdc5b2936f1e0566342dd15a0aea9fef1922b8478c8365b93409d"),
    "tamper stats planarize_moves":
        (1, "cc108a48af9faf211a8f71f3ed471dc119d736a0ffe8942f792cca737c869b2a"),
    "tamper stats pack_moves":
        (1, "217601e5384bbbd0d8f998a78bf3050b674d9ad22c30107a4f77cbb15835b41e"),
    "tamper stats splits":
        (1, "efa4a58b4ca9bdb14bdf522ab98b73fab269fbb54bb549acfa2fc11aad3a0bd3"),
    "tamper stats fixes":
        (1, "82a14eab0383a55db76460b423d26d4bd90af4114335b9b62ac0ff61abb47d2a"),
    "tamper stats per_component[#] component":
        (1, "8297c4ab889c56657d1e68cad031ff65ecaf325fc498d9130affff72cc276dd4"),
    "tamper stats per_component[#] edges":
        (1, "8297c4ab889c56657d1e68cad031ff65ecaf325fc498d9130affff72cc276dd4"),
    "tamper stats per_component[#] rhombi_used":
        (1, "8297c4ab889c56657d1e68cad031ff65ecaf325fc498d9130affff72cc276dd4"),
    "tamper stats per_component[#] budget":
        (1, "8297c4ab889c56657d1e68cad031ff65ecaf325fc498d9130affff72cc276dd4"),
    "tamper move # stage=pack":
        (1, "b3572e5c64bcf4b24c65ea792af593a8b407677bbb849d414372aa9973085133"),
    "straddling degenerate pivot":
        (0, "6f6751e6085dcb1326f7f1ad8c75e6a2f8e840f8f2f9ca9b020b2c929f9d536d"),
    "off the grid":
        (0, "b4f8c1becd57aa9ff154e9013c443a6a2c0f45ee2f56e4063668786833c3f6da"),
}

# sha256 of the OFF file ``reduce --off`` writes for the stored crown_curve(12, 0.3)
GOLDEN_OFF = "88f3d54ec228baa126dfff2a50813b7a40b868b89ae2d64072e8e084a90fdfc7"


def _validate_stdout(tmp_path, capsys, doc) -> tuple[int, str]:
    path = tmp_path / "ledger.json"
    path.write_text(files.dump_json(doc), encoding="utf-8")
    capsys.readouterr()
    code = main(["validate", "--in", str(path)])
    return code, capsys.readouterr().out


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_every_document_has_a_golden_report():
    assert sorted(_documents()) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_validate_report_matches_golden(name, tmp_path, capsys):
    code, out = _validate_stdout(tmp_path, capsys, _documents()[name])
    assert (code, _sha(out.encode("utf-8"))) == GOLDEN[name]


def test_degenerate_pivot_records_a_fold():
    ledger = files.ledger_from_obj(_documents()["straddling degenerate pivot"])
    chain = assemble_from_ledger(ledger)
    assert chain.fold_ids.tolist() == [[0, 1, 2, 4]]
    assert len(chain.rhombus_cell_ids) == 0 and chain.stats["k"] == 0
    assert validate_ledger(ledger).passed


def test_off_export_matches_golden(tmp_path, capsys):
    off = tmp_path / "dome.off"
    assert main(["reduce", "--in", str(DATA / "curve_crown_12.json"),
                 "--out", str(tmp_path / "ledger.json"), "--off", str(off)]) == 0
    assert _sha(off.read_bytes()) == GOLDEN_OFF
