"""Golden validate reports: ``rhombidome validate`` prints the same report
for fixed ledgers, and ``reduce --off`` writes the same mesh.

The ledgers come from the stored curves of ``test_golden_ledgers.py``, so
no ``cos`` or ``sin`` of the host goes into them.  Besides the four passing
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
        (0, "2d55ce559e7f35ddcf72a9b6366ac71cf946426014bf0005c3fe845294e94502"),
    "golden cubic_walk_18":
        (0, "3f21da91e9cb600c596039071bdd43493667685f0b2884bafe60e465cf2f70ad"),
    "golden crown_union_3":
        (0, "4ab4269974a5be15090cab25c4fc1090a2e014bce535933626b911d78400207c"),
    "tamper move # new":
        (1, "af19f1d94aaded4d488e9175b65db1a36005e28d2445e30a441c758ea4bb7482"),
    "tamper move # order swap # #":
        (1, "f9d2308de4b18124cfbb765ce5e3b158c57a617bfbe644522b32217e8fe21ff6"),
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
        (1, "755ea0a1894c521ce891c3f56c5b3553465e9e8c514090446364339ec88ce316"),
    "tamper move # at=#":
        (1, "c701476311084b11d26e25d8d2806785539aa20ef692e1e796d89a8537e26c0d"),
    "tamper move # apex[#]":
        (1, "a3affd9cb4e45b1fb8f13be517336339f98a6710cf217f57ef313c050b79d090"),
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
        (1, "768711cdb5eac57e9e38cdc0a5620e50731cc350f2ed83815d3fdb3690f80ad6"),
    "tamper stats k":
        (1, "c0d8956afaa419a4bf6ed80edcc99c110ba2fae5256775930a05015ec4051c55"),
    "tamper stats budget":
        (1, "35b876db982ccc67b12d161481cb9cc104f4880c0ed126e12829f7e00562b40b"),
    "tamper stats planarize_moves":
        (1, "c648392c44400050429bd16b23c686771c9d4666a69c0d65d1c7b50fcb5868fc"),
    "tamper stats pack_moves":
        (1, "bd6c20385cf93e6d59dd87c3a3fd1e517b452055cb6c6d4bf3b35499b3262aa2"),
    "tamper stats splits":
        (1, "bb1ad9247d0fd659f6233d5f347c4a703af19b8b1b232d9c3a679ee40e10c400"),
    "tamper stats fixes":
        (1, "b35ed7d31578e95ff8d78a2d5fd4c425fccf61fecaa01368268366c6200903b3"),
    "tamper stats per_component[#] component":
        (1, "b587ddf0bdd3bd394ab8ec5239117beca651f99b78d4ab8f8b15270069682f5d"),
    "tamper stats per_component[#] edges":
        (1, "b587ddf0bdd3bd394ab8ec5239117beca651f99b78d4ab8f8b15270069682f5d"),
    "tamper stats per_component[#] rhombi_used":
        (1, "b587ddf0bdd3bd394ab8ec5239117beca651f99b78d4ab8f8b15270069682f5d"),
    "tamper stats per_component[#] budget":
        (1, "b587ddf0bdd3bd394ab8ec5239117beca651f99b78d4ab8f8b15270069682f5d"),
    "tamper move # stage=pack":
        (1, "562a87c3d76974da55dd42e035969ac0192c0746375e64cc15d52d89aebd32c2"),
    "straddling degenerate pivot":
        (0, "6f6751e6085dcb1326f7f1ad8c75e6a2f8e840f8f2f9ca9b020b2c929f9d536d"),
    "off the grid":
        (0, "b4f8c1becd57aa9ff154e9013c443a6a2c0f45ee2f56e4063668786833c3f6da"),
}

# sha256 of the OFF file ``reduce --off`` writes for the stored crown_curve(12, 0.3)
GOLDEN_OFF = "f0d81aec96ffa7bb02253d72e2ffb0218c3dd53fa44f0d20366b1f6c9c598e1c"


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
