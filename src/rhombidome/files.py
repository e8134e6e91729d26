"""JSON file formats for curves and ledgers, plus OFF mesh export.

Floats are serialized with Python's shortest-round-trip repr, so write ->
read -> write is byte-identical and replay stays exact across the disk
boundary.

Ledger version 3 records decisions only: each move is written from its row
of ``surface.MOVE_TABLE``, and every cell is derived on replay, a
pentagon's from its recorded ``apex``.  Versions 1 and 2, which also stored
the ``triangles`` and boundary ``rhombi`` and had the consuming moves name
them by index, are still read: a pentagon's apex is the third vertex of the
triangle it names, and every other recorded cell, like the keys version 2
dropped from version 1 (``seams``, a pivot's ``old``, ``rhombus`` and
``degenerate``, a split's ``seams``, a pentagon's ``apex`` and ``seam``),
is ignored.  Writing always produces version 3.

The ledger types come from the checker's module, :mod:`rhombidome.surface`,
so reading a ledger needs nothing of the producer.
"""

from __future__ import annotations

import json
from itertools import chain

import numpy as np

from .curve import IntegralCurve
from .surface import MOVE_TABLE, CobordismLedger, Move, Rhombus, TriangleFace

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
LEDGER_VERSION = 3


class FileFormatError(ValueError):
    """Malformed or unsupported input document."""


def _points(arr: np.ndarray) -> list:
    return np.asarray(arr, dtype=float).tolist()


def _numbers(rows, depth: int) -> bool:
    """True if every leaf of ``rows``, lists nested ``depth`` deep, is a JSON
    number.  numpy would parse a string such as ``"0.5"`` and take ``true``
    as 1.0; ``bool`` is a subclass of ``int`` but not a number here."""
    for _ in range(depth - 1):
        rows = chain.from_iterable(rows)
    return set(map(type, rows)) <= {int, float}


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
        "components": [_points(c) for c in curve.components],
    }


def _version(obj, supported: tuple[int, ...]) -> int | None:
    """The document's integer ``version`` if it is one of ``supported``;
    ``true`` and ``2.0`` equal 1 and 2 in Python but are not versions."""
    version = obj.get("version") if isinstance(obj, dict) else None
    return version if type(version) is int and version in supported else None


def curve_from_obj(obj) -> IntegralCurve:
    if _version(obj, (CURVE_VERSION,)) is None:
        raise FileFormatError("unsupported curve document")
    comps = obj.get("components")
    if not isinstance(comps, list):
        raise FileFormatError("curve document lacks components")
    return IntegralCurve([_array(c, "curve component") for c in comps])


def _int(obj, what: str) -> int:
    if type(obj) is not int:
        raise FileFormatError(f"bad {what}: expected an integer, got {obj!r}")
    return obj


def _point(obj, what: str) -> np.ndarray:
    return _floats(obj, what, "a 3-d point", lambda shape: shape == (3,))


def _str(obj, what: str) -> str:
    if not isinstance(obj, str):
        raise FileFormatError(f"bad {what}: expected a string")
    return obj


# codec name (see surface.MoveSpec) -> encoder / decoder; a point field is
# decoded by the point decoder ``_moves_from_obj`` is given
_ENCODE = {"int": int, "point": _points, "str": str}
_DECODE = {"int": _int, "str": _str}

# JSON type -> (JSON key, attribute, decoder or None for a point, error label)
# of each field, and the keys of its point fields
_PLANS = {kind: tuple((key, attr, _DECODE.get(codec), f"{kind} {key}")
                      for key, attr, codec in spec.fields)
          for kind, spec in MOVE_TABLE.items()}
_POINT_KEYS = {kind: tuple(key for key, _, decode, _ in plan if decode is None)
               for kind, plan in _PLANS.items()}


def _move_to_obj(move: Move) -> dict:
    obj = {"type": move.kind}
    for key, attr, codec in MOVE_TABLE[move.kind].fields:
        obj[key] = _ENCODE[codec](getattr(move, attr))
    return obj


def _moves_from_obj(objs: list, point) -> list[Move]:
    """Decode moves in order; ``point(obj, what)`` decodes each point field."""
    moves = []
    for obj in objs:
        if not isinstance(obj, dict) or obj.get("type") not in MOVE_TABLE:
            raise FileFormatError(f"bad move: {obj!r:.80}")
        kind = obj["type"]
        moves.append(MOVE_TABLE[kind].cls(**{
            attr: (decode or point)(obj[key], what)
            for key, attr, decode, what in _PLANS[kind]}))
    return moves


def _stacked(items: list, shape: tuple[int, ...]) -> np.ndarray:
    """``items`` as one finite float array of shape ``(len(items),) + shape``.

    Raises ValueError when the items do not convert to that shape or hold a
    non-finite value or a value that is not a JSON number.
    """
    arr = np.asarray(items, dtype=float)
    if (arr.shape != (len(items),) + shape or not np.isfinite(arr).all()
            or not _numbers(items, arr.ndim)):
        raise ValueError("items do not stack")
    return arr


def _ledger(obj: dict, point) -> CobordismLedger:
    """Decode a ledger in document order with the given point decoder."""
    return CobordismLedger(
        initial=curve_from_obj(obj["initial"]),
        moves=_moves_from_obj(obj["moves"], point),
        final_curve=curve_from_obj(obj["final_curve"]),
        stats=obj["stats"],
    )


def ledger_to_obj(ledger: CobordismLedger) -> dict:
    return {
        "version": LEDGER_VERSION,
        "initial": curve_to_obj(ledger.initial),
        "moves": [_move_to_obj(m) for m in ledger.moves],
        "final_curve": curve_to_obj(ledger.final_curve),
        "stats": ledger.stats,
    }


def _with_apexes(obj: dict) -> dict:
    """A version 1 or 2 document with each pentagon's ``apex`` set to the
    third vertex of the triangle it names, as version 3 records it."""
    triangles = obj["triangles"]
    moves = []
    for move in obj["moves"]:
        if isinstance(move, dict) and move.get("type") == "pentagon":
            t = _int(move["triangle"], "pentagon triangle")
            if not 0 <= t < len(triangles):
                raise FileFormatError(f"bad pentagon triangle: no triangle {t}")
            triangle = _floats(triangles[t], "triangle", "three 3-d points",
                               lambda shape: shape == (3, 3))
            move = {**move, "apex": triangle[2].tolist()}
        moves.append(move)
    return {**obj, "moves": moves}


def ledger_from_obj(obj) -> CobordismLedger:
    """Decode a ledger document.

    A version 1 or 2 document first takes each pentagon's apex from the
    triangle it names.  Every move point is then converted and checked as
    one float array.  Any failure there decodes the document again item by
    item, which accepts or rejects it as a per-item decode always has and
    names its first bad item in document order.
    """
    version = _version(obj, (1, 2, LEDGER_VERSION))
    if version is None:
        raise FileFormatError("unsupported ledger document")
    try:
        kinds = {"moves": list, "stats": dict}
        if version < LEDGER_VERSION:
            kinds.update(triangles=list, rhombi=list)
        for key, kind in kinds.items():
            if not isinstance(obj[key], kind):
                raise FileFormatError(f"ledger {key} must be a JSON "
                                      f"{'array' if kind is list else 'object'}")
        if version < LEDGER_VERSION:
            obj = _with_apexes(obj)
        try:
            raw = [m[key] for m in obj["moves"] for key in _POINT_KEYS[m["type"]]]
            rows = iter(_stacked(raw, (3,)))  # read back in the order gathered
            return _ledger(obj, lambda p, what: next(rows))
        except (KeyError, TypeError, ValueError, OverflowError):
            return _ledger(obj, _point)
    except (KeyError, TypeError) as exc:
        raise FileFormatError(f"malformed ledger document: {exc}") from exc


def dump_json(obj: dict) -> str:
    """One line of compact, key-sorted JSON (the C encoder's fast path)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


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
