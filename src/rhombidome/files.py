"""JSON file formats for curves and ledgers, plus OFF mesh export.

Floats are serialized with Python's shortest-round-trip repr, so write ->
read -> write is byte-identical and replay stays exact across the disk
boundary.

Ledger version 5 records decisions only: each move is written by its
kind's encoder and read by its kind's decoder, and this module alone maps
moves to JSON: their keys, and their ``type``, the class's ``kind``.  Every
cell is derived on replay, a pentagon's from its recorded ``apex``, a pack's
swaps and their cells from its recorded ``order``, a split's pieces from
its position ``at``.  It is the only version read or written; a document of
any other version is refused.  An older ledger's ``initial`` is a version 1
curve document, so reducing it gives a version 5 ledger of the same curve (a
new reduction, not the old moves).

The ledger types come from the checker's module, :mod:`rhombidome.surface`,
so reading a ledger needs nothing of the producer.
"""

from __future__ import annotations

import json
import math
from functools import partial
from itertools import chain

import numpy as np

from .curve import IntegralCurve
from .surface import (
    CloseRhombusMove,
    CloseTriangleMove,
    CobordismLedger,
    Move,
    PackMove,
    PentagonMove,
    PivotMove,
    SplitMove,
)

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
LEDGER_VERSION = 5
_NUMBER_TYPES = frozenset((int, float))  # the Python types of a JSON number


class FileFormatError(ValueError):
    """Malformed or unsupported input document."""


def _numbers(rows, depth: int) -> bool:
    """True if every leaf of ``rows``, lists nested ``depth`` deep, is a JSON
    number.  numpy would parse a string such as ``"0.5"`` and take ``true``
    as 1.0; ``bool`` is a subclass of ``int`` but not a number here."""
    for _ in range(depth - 1):
        rows = chain.from_iterable(rows)
    return set(map(type, rows)) <= _NUMBER_TYPES


def _floats(obj, what: str, expected: str, shape_ok) -> np.ndarray:
    """``obj`` as a finite float array of JSON numbers whose shape passes
    ``shape_ok``; any other value is refused as ``bad {what}: expected
    {expected}``."""
    try:
        arr = np.asarray(obj, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise FileFormatError(f"bad {what}: expected {expected}") from exc
    if not np.all(np.isfinite(arr)):
        raise FileFormatError(f"bad {what}: non-finite coordinate")
    if not shape_ok(arr.shape) or not _numbers(obj, arr.ndim):
        raise FileFormatError(f"bad {what}: expected {expected}")
    return arr


def _array(obj, what: str) -> np.ndarray:
    return _floats(obj, what, "a list of 3-d points",
                   lambda shape: len(shape) == 2 and shape[1] == 3)


def curve_to_obj(curve: IntegralCurve) -> dict:
    return {
        "version": CURVE_VERSION,
        "components": [np.asarray(c, dtype=float).tolist() for c in curve.components],
    }


def _has_version(obj, version: int) -> bool:
    """True if the document's ``version`` is the integer ``version``; ``true``
    and ``1.0`` equal 1 in Python but are not versions."""
    found = obj.get("version") if isinstance(obj, dict) else None
    return type(found) is int and found == version


def curve_from_obj(obj) -> IntegralCurve:
    if not _has_version(obj, CURVE_VERSION):
        raise FileFormatError("unsupported curve document")
    comps = obj.get("components")
    if not isinstance(comps, list):
        raise FileFormatError("curve document lacks components")
    return IntegralCurve([_array(c, "curve component") for c in comps])


def _int(obj, what: str) -> int:
    if type(obj) is not int:
        raise FileFormatError(f"bad {what}: expected an integer, got {obj!r}")
    return obj


def _ints(obj, what: str) -> list[int]:
    if not isinstance(obj, list) or not set(map(type, obj)) <= {int}:
        raise FileFormatError(f"bad {what}: expected a list of integers")
    return list(obj)


def _point(obj, what: str) -> list[float]:
    """``obj``, a JSON list of three finite numbers, as a row of floats;
    anything else is refused in :func:`_floats`' words."""
    if type(obj) is list and len(obj) == 3:
        x, y, z = obj
        # the common case, three finite floats; a sum that overflows takes
        # the full check below, like any other value
        if type(x) is type(y) is type(z) is float and math.isfinite(x + y + z):
            return [x, y, z]
    try:
        if type(obj) is list and len(obj) == 3 and set(map(type, obj)) <= _NUMBER_TYPES:
            row = list(map(float, obj))
            if all(map(math.isfinite, row)):
                return row
    except OverflowError:  # an integer past the float range
        pass
    _floats(obj, what, "a 3-d point", lambda shape: shape == (3,))
    raise FileFormatError(f"bad {what}: expected a 3-d point")  # not a JSON list


def _str(obj, what: str) -> str:
    if not isinstance(obj, str):
        raise FileFormatError(f"bad {what}: expected a string")
    return obj


# One encoder and one decoder per move kind, each for its JSON keys in the
# class's field order; the ``type`` of a move is its class's ``kind``.  A
# decoder checks each field in that order, so a refusal names the first bad
# one.


def _pivot_to_obj(move: PivotMove) -> dict:
    return {"type": move.kind, "component": int(move.component), "vertex": int(move.vertex),
            "new": list(map(float, move.new_point)), "stage": str(move.stage)}


def _pivot_from_obj(obj: dict) -> PivotMove:
    return PivotMove(_int(obj["component"], "pivot component"),
                     _int(obj["vertex"], "pivot vertex"),
                     _point(obj["new"], "pivot new"), _str(obj["stage"], "pivot stage"))


def _pack_to_obj(move: PackMove) -> dict:
    return {"type": move.kind, "component": int(move.component),
            "order": list(map(int, move.order))}


def _pack_from_obj(obj: dict) -> PackMove:
    return PackMove(_int(obj["component"], "pack component"),
                    _ints(obj["order"], "pack order"))


def _split_to_obj(move: SplitMove) -> dict:
    return {"type": move.kind, "component": int(move.component),
            "new_component": int(move.new_component), "z": list(map(float, move.z)),
            "at": int(move.at)}


def _split_from_obj(obj: dict) -> SplitMove:
    return SplitMove(_int(obj["component"], "split component"),
                     _int(obj["new_component"], "split new_component"),
                     _point(obj["z"], "split z"), _int(obj["at"], "split at"))


def _pentagon_to_obj(move: PentagonMove) -> dict:
    return {"type": move.kind, "component": int(move.component),
            "apex": list(map(float, move.apex))}


def _pentagon_from_obj(obj: dict) -> PentagonMove:
    return PentagonMove(_int(obj["component"], "pentagon component"),
                        _point(obj["apex"], "pentagon apex"))


def _close_to_obj(move: CloseRhombusMove | CloseTriangleMove) -> dict:
    return {"type": move.kind, "component": int(move.component)}


def _close_from_obj(cls: type, obj: dict) -> CloseRhombusMove | CloseTriangleMove:
    return cls(_int(obj["component"], f"{cls.kind} component"))


# move class -> (encoder, decoder)
_CODECS = {PivotMove: (_pivot_to_obj, _pivot_from_obj),
           PackMove: (_pack_to_obj, _pack_from_obj),
           SplitMove: (_split_to_obj, _split_from_obj),
           PentagonMove: (_pentagon_to_obj, _pentagon_from_obj),
           CloseRhombusMove: (_close_to_obj, partial(_close_from_obj, CloseRhombusMove)),
           CloseTriangleMove: (_close_to_obj, partial(_close_from_obj, CloseTriangleMove))}
# move class -> encoder, and JSON ``type`` -> decoder
_TO_OBJ = {cls: encode for cls, (encode, _) in _CODECS.items()}
_FROM_OBJ = {cls.kind: decode for cls, (_, decode) in _CODECS.items()}


def _moves_from_obj(objs: list) -> list[Move]:
    """Decode moves in order, each by the decoder of its JSON ``type``."""
    moves = []
    for obj in objs:
        decode = _FROM_OBJ.get(obj.get("type")) if isinstance(obj, dict) else None
        if decode is None:
            raise FileFormatError(f"bad move: {obj!r:.80}")
        moves.append(decode(obj))
    return moves


def ledger_to_obj(ledger: CobordismLedger) -> dict:
    return {
        "version": LEDGER_VERSION,
        "initial": curve_to_obj(ledger.initial),
        "moves": [_TO_OBJ[type(m)](m) for m in ledger.moves],
        "final_curve": curve_to_obj(ledger.final_curve),
        "stats": ledger.stats,
    }


def ledger_from_obj(obj) -> CobordismLedger:
    """Decode a version 5 ledger document, item by item in document order,
    so a refusal names the first bad item.  Each move point becomes a row
    of three floats.
    """
    if not _has_version(obj, LEDGER_VERSION):
        raise FileFormatError("unsupported ledger document")
    try:
        for key, kind in (("moves", list), ("stats", dict)):
            if not isinstance(obj[key], kind):
                raise FileFormatError(f"ledger {key} must be a JSON "
                                      f"{'array' if kind is list else 'object'}")
        return CobordismLedger(
            initial=curve_from_obj(obj["initial"]),
            moves=_moves_from_obj(obj["moves"]),
            final_curve=curve_from_obj(obj["final_curve"]),
            stats=obj["stats"],
        )
    except (KeyError, TypeError) as exc:
        raise FileFormatError(f"malformed ledger document: {exc}") from exc


def dump_json(obj: dict) -> str:
    """One line of compact, key-sorted JSON (the C encoder's fast path)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def write_curve(path: str, curve: IntegralCurve) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_json(curve_to_obj(curve)))


def _read_json(path: str):
    """The JSON document at ``path``; text that is not UTF-8 or not JSON, or
    nests past the decoder's recursion limit, is refused as not valid JSON."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
            raise FileFormatError(f"not valid JSON: {exc}") from exc


def read_curve(path: str) -> IntegralCurve:
    return curve_from_obj(_read_json(path))


def write_ledger(path: str, ledger: CobordismLedger) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_json(ledger_to_obj(ledger)))


def read_ledger(path: str) -> CobordismLedger:
    return ledger_from_obj(_read_json(path))


def export_off(path: str, triangles: np.ndarray, rhombus_cells: np.ndarray) -> None:
    """Write chain cells, (m, 3, 3) triangles and (m, 4, 3) rhombus cells, as
    an OFF mesh (visualization only).

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
    for v in triangles:
        faces.append((vid(v[0]), vid(v[1]), vid(v[2])))
    for v in rhombus_cells:
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
