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
        (0, "6340f7f38e4b6f4bb48bc0af4cbcad9404815744b881b2d5e0955c8aded72ef6"),
    "golden cubic_walk_18":
        (0, "897e7fadc99a94e856717a85537fd81ef5fb40523dacec8e151595a088d0b56a"),
    "golden crown_union_3":
        (0, "76c3048ae495dab8cfc646cc58459babbd0ecaf1bdc1a3c55c59dc67ba5f054d"),
    "tamper move # new":
        (1, "af19f1d94aaded4d488e9175b65db1a36005e28d2445e30a441c758ea4bb7482"),
    "tamper move # order swap # #":
        (1, "def6c29b995c6a3c5eb75accdefe64c66789b0e0fbb55767dc89cc17f8e1a27b"),
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
        (1, "378127903ef76eb563f5f18fd882c6392690953b9558a2f3ec9b7d223b43d00c"),
    "tamper move # at=#":
        (1, "c701476311084b11d26e25d8d2806785539aa20ef692e1e796d89a8537e26c0d"),
    "tamper move # apex[#]":
        (1, "987a0194e7bd4d173944104a2deffab7b3e124622e691492d313902ba017d128"),
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
        (1, "df002b346e19047a1a763e8d3b65e5acfc2672e2f220f1e565de0d733c2eb098"),
    "tamper stats k":
        (1, "b3823d2d7cee0f50468ee2fc36ae244346d36e0964541902f81ddc0eac6d6e64"),
    "tamper stats budget":
        (1, "ddfd8c0f0372e9b1b7065b9ca6214759ef6af25ca806859486706160fe7f182c"),
    "tamper stats planarize_moves":
        (1, "faa04f3a0baa18064e139f8765e92fab6cb73365cec37c9cfc09bd7e87820f65"),
    "tamper stats pack_moves":
        (1, "caf21989e2b1515042276ab00894e9487c55a46dd944ad7ba0feb10a5a1c9f8d"),
    "tamper stats splits":
        (1, "0086458dbc1c804e22f62971a851e223a8e4f41997f305acc538384d020ceade"),
    "tamper stats fixes":
        (1, "10645cdcf44ba55390ad359be44d249c07572b239b060080c913c6efae433418"),
    "tamper stats per_component[#] component":
        (1, "b6b5dddc978dabb5d4c231a47d84134b1c30a71ff3e6299a3fa20107fdec50ad"),
    "tamper stats per_component[#] edges":
        (1, "b6b5dddc978dabb5d4c231a47d84134b1c30a71ff3e6299a3fa20107fdec50ad"),
    "tamper stats per_component[#] rhombi_used":
        (1, "b6b5dddc978dabb5d4c231a47d84134b1c30a71ff3e6299a3fa20107fdec50ad"),
    "tamper stats per_component[#] budget":
        (1, "b6b5dddc978dabb5d4c231a47d84134b1c30a71ff3e6299a3fa20107fdec50ad"),
    "tamper move # stage=pack":
        (1, "ec85055fc8d2064f59f4e8b888949f02fbe6ff99fb2bd5ace2761bd2d1c70235"),
    "straddling degenerate pivot":
        (0, "6f6751e6085dcb1326f7f1ad8c75e6a2f8e840f8f2f9ca9b020b2c929f9d536d"),
    "off the grid":
        (0, "b4f8c1becd57aa9ff154e9013c443a6a2c0f45ee2f56e4063668786833c3f6da"),
}

# sha256 of the OFF file ``reduce --off`` writes for the stored crown_curve(12, 0.3)
GOLDEN_OFF = "319cf6d1642930588c6244e9e7ca644bf4ae23bf56536b8606c68edc00cacae0"


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
