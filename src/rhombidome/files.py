"""JSON file formats for curves and ledgers, plus OFF mesh export.

Floats are serialized with Python's shortest-round-trip repr, so write ->
read -> write is byte-identical and replay stays exact across the disk
boundary.

Ledger version 2 records decisions only: each move is written from its row
of ``cobordism.MOVE_TABLE``, and pivot cells are derived on replay.  Version
1 documents are still read; the keys version 2 dropped (``seams``, a
pivot's ``old``, ``rhombus`` and ``degenerate``, a split's ``seams``, a
pentagon's ``apex`` and ``seam``) are ignored, and the ledger is checked by
the same derivation.  Writing always produces version 2.
"""

from __future__ import annotations

import json

import numpy as np

from .cobordism import MOVE_TABLE, CobordismLedger, Move, Rhombus, TriangleFace
from .curve import IntegralCurve

__all__ = [
    "FileFormatError",
    "curve_to_obj",
    "curve_from_obj",
    "ledger_to_obj",
    "ledger_from_obj",
    "dump_json",
    "write_curve",
    "read_curve",
    "write_ledger",
    "read_ledger",
    "export_off",
]

CURVE_VERSION = 1
LEDGER_VERSION = 2


class FileFormatError(ValueError):
    """Malformed or unsupported input document."""


def _points(arr: np.ndarray) -> list:
    return np.asarray(arr, dtype=float).tolist()


def _floats(obj, what: str) -> np.ndarray:
    try:
        arr = np.asarray(obj, dtype=float)
    except (TypeError, ValueError) as exc:
        raise FileFormatError(f"bad {what}: {exc}") from exc
    if not np.all(np.isfinite(arr)):
        raise FileFormatError(f"bad {what}: non-finite coordinate")
    return arr


def _array(obj, shape_hint: str) -> np.ndarray:
    arr = _floats(obj, shape_hint)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise FileFormatError(f"bad {shape_hint}: expected a list of 3-d points")
    return arr


def curve_to_obj(curve: IntegralCurve) -> dict:
    return {
        "version": CURVE_VERSION,
        "components": [_points(c) for c in curve.components],
    }


def curve_from_obj(obj) -> IntegralCurve:
    if not isinstance(obj, dict) or obj.get("version") != CURVE_VERSION:
        raise FileFormatError("unsupported curve document")
    comps = obj.get("components")
    if not isinstance(comps, list):
        raise FileFormatError("curve document lacks components")
    return IntegralCurve([_array(c, "curve component") for c in comps])


def _int(obj, what: str) -> int:
    if type(obj) is not int:
        raise FileFormatError(f"bad {what}: expected an integer, got {obj!r}")
    return obj


def _int_pair(obj, what: str) -> tuple[int, int]:
    if not isinstance(obj, list) or len(obj) != 2:
        raise FileFormatError(f"bad {what}: expected two integers")
    return _int(obj[0], what), _int(obj[1], what)


def _point(obj, what: str) -> np.ndarray:
    arr = _floats(obj, what)
    if arr.shape != (3,):
        raise FileFormatError(f"bad {what}: expected a 3-d point")
    return arr


def _str(obj, what: str) -> str:
    if not isinstance(obj, str):
        raise FileFormatError(f"bad {what}: expected a string")
    return obj


# codec name (see cobordism.MoveSpec) -> encoder / decoder
_ENCODE = {"int": int, "int_pair": list, "point": _points, "str": str}
_DECODE = {"int": _int, "int_pair": _int_pair, "point": _point, "str": _str}


def _move_to_obj(move: Move) -> dict:
    obj = {"type": move.kind}
    for key, attr, codec in MOVE_TABLE[move.kind].fields:
        obj[key] = _ENCODE[codec](getattr(move, attr))
    return obj


def _move_from_obj(obj) -> Move:
    if not isinstance(obj, dict) or obj.get("type") not in MOVE_TABLE:
        raise FileFormatError(f"bad move: {obj!r:.80}")
    spec = MOVE_TABLE[obj["type"]]
    return spec.cls(**{attr: _DECODE[codec](obj[key], f"{obj['type']} {key}")
                       for key, attr, codec in spec.fields})


def ledger_to_obj(ledger: CobordismLedger) -> dict:
    return {
        "version": LEDGER_VERSION,
        "initial": curve_to_obj(ledger.initial),
        "moves": [_move_to_obj(m) for m in ledger.moves],
        "triangles": [_points(t.vertices) for t in ledger.triangles],
        "rhombi": [_points(r.vertices) for r in ledger.final_rhombi],
        "final_curve": curve_to_obj(ledger.final_curve),
        "stats": ledger.stats,
    }


def ledger_from_obj(obj) -> CobordismLedger:
    if not isinstance(obj, dict) or obj.get("version") not in (1, LEDGER_VERSION):
        raise FileFormatError("unsupported ledger document")
    try:
        if not isinstance(obj["stats"], dict):
            raise FileFormatError("ledger stats must be an object")
        return CobordismLedger(
            initial=curve_from_obj(obj["initial"]),
            moves=[_move_from_obj(m) for m in obj["moves"]],
            triangles=[TriangleFace(_array(t, "triangle")) for t in obj["triangles"]],
            final_rhombi=[Rhombus(_array(r, "rhombus")) for r in obj["rhombi"]],
            final_curve=curve_from_obj(obj["final_curve"]),
            stats=obj["stats"],
        )
    except (KeyError, TypeError) as exc:
        raise FileFormatError(f"malformed ledger document: {exc}") from exc


def dump_json(obj: dict) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def write_curve(path: str, curve: IntegralCurve) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_json(curve_to_obj(curve)))


def read_curve(path: str) -> IntegralCurve:
    with open(path, encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FileFormatError(f"not valid JSON: {exc}") from exc
    return curve_from_obj(obj)


def write_ledger(path: str, ledger: CobordismLedger) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_json(ledger_to_obj(ledger)))


def read_ledger(path: str) -> CobordismLedger:
    with open(path, encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FileFormatError(f"not valid JSON: {exc}") from exc
    return ledger_from_obj(obj)


def export_off(path: str, triangles: list[TriangleFace],
               rhombus_cells: list[Rhombus]) -> None:
    """Write chain cells as an OFF mesh (visualization only).

    Rhombus cells are triangulated along their first diagonal purely for
    export; the split edges are not part of the chain.
    """
    vertices: list[tuple[float, float, float]] = []
    index: dict[tuple[float, float, float], int] = {}

    def vid(p) -> int:
        key = (float(p[0]), float(p[1]), float(p[2]))
        if key not in index:
            index[key] = len(vertices)
            vertices.append(key)
        return index[key]

    faces: list[tuple[int, int, int]] = []
    for tri in triangles:
        v = tri.vertices
        faces.append((vid(v[0]), vid(v[1]), vid(v[2])))
    for rho in rhombus_cells:
        v = rho.vertices
        faces.append((vid(v[0]), vid(v[1]), vid(v[2])))
        faces.append((vid(v[0]), vid(v[2]), vid(v[3])))

    with open(path, "w", encoding="utf-8") as fh:
        fh.write("OFF\n")
        fh.write("# visualization only: rhombus cells triangulated along a diagonal\n")
        fh.write(f"{len(vertices)} {len(faces)} 0\n")
        for x, y, z in vertices:
            fh.write(f"{x!r} {y!r} {z!r}\n")
        for a, b, c in faces:
            fh.write(f"3 {a} {b} {c}\n")
