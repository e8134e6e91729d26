"""JSON file formats for curves and ledgers, plus OFF mesh export.

Documents are written as canonical JSON text: one line, keys sorted, ``,``
and ``:`` separators, the bytes :func:`dump_json` gives for the same
document.  Floats are serialized with Python's shortest-round-trip repr, so
write -> read -> write is byte-identical and replay stays exact across the
disk boundary.

Ledger version 5 records decisions only: each move is written by its
kind's text encoder and read by its kind's decoder, and this module alone
maps moves to JSON: their keys, and their ``type``, the class's ``kind``.
Each format has one encoder: :func:`ledger_to_obj` and
:func:`curve_to_obj` parse the text that the writers write.  Every cell is
derived on replay, a pentagon's from its recorded ``apex``, a pack's swaps
and their cells from its recorded ``order``, a split's pieces from its
position ``at``.  It is the only version read or written; a document of any
other version is refused.  An older ledger's ``initial`` is a version 1
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
    DomeChain,
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


def _floats(obj, what: str, expected: str, shape_ok) -> np.ndarray:
    """``obj`` as a finite float array of JSON numbers (numpy also reads ``"0.5"``
    and ``true``) whose shape passes ``shape_ok``; any other value is refused
    as ``bad {what}: expected {expected}``."""
    try:
        arr = np.asarray(obj, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise FileFormatError(f"bad {what}: expected {expected}") from exc
    if not np.all(np.isfinite(arr)):
        raise FileFormatError(f"bad {what}: non-finite coordinate")
    leaves = obj
    for _ in range(arr.ndim - 1):
        leaves = chain.from_iterable(leaves)
    if not shape_ok(arr.shape) or not set(map(type, leaves)) <= _NUMBER_TYPES:
        raise FileFormatError(f"bad {what}: expected {expected}")
    return arr


def _array(obj, what: str) -> np.ndarray:
    return _floats(obj, what, "a list of 3-d points",
                   lambda shape: len(shape) == 2 and shape[1] == 3)


def _point_json(point) -> str:
    """A point, three numbers, as canonical JSON floats: each finite one in
    ``float.__repr__``, as json writes it, and any other point through json."""
    x, y, z = map(float, point)
    if math.isfinite(x + y + z):  # a sum that overflows takes json's path too
        return f"[{x!r},{y!r},{z!r}]"
    return json.dumps([x, y, z], separators=(",", ":"))


def _curve_json(curve: IntegralCurve) -> str:
    comps = ",".join(["[" + ",".join(map(_point_json, c)) + "]" for c in curve.components])
    return f'{{"components":[{comps}],"version":{CURVE_VERSION}}}'


def curve_to_obj(curve: IntegralCurve) -> dict:
    return json.loads(_curve_json(curve))


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
    point = _floats(obj, what, "a 3-d point", lambda shape: shape == (3,))
    if type(obj) is not list:
        raise FileFormatError(f"bad {what}: expected a 3-d point")
    return point.tolist()


def _str(obj, what: str) -> str:
    if not isinstance(obj, str):
        raise FileFormatError(f"bad {what}: expected a string")
    return obj


# One encoder and one decoder per move kind.  An encoder returns the move's
# canonical JSON text: its keys sorted, each field coerced with ``int()``,
# ``float()`` or ``str()``, the string through ``json.dumps``, and the
# ``type`` its class's ``kind``, an ASCII word.  A decoder checks each field
# in the class's field order, so a refusal names the first bad one.


def _pivot_json(move: PivotMove) -> str:
    return (f'{{"component":{int(move.component)},"new":{_point_json(move.new_point)},'
            f'"stage":{json.dumps(str(move.stage))},"type":"{move.kind}",'
            f'"vertex":{int(move.vertex)}}}')


def _pivot_from_obj(obj: dict) -> PivotMove:
    return PivotMove(_int(obj["component"], "pivot component"),
                     _int(obj["vertex"], "pivot vertex"),
                     _point(obj["new"], "pivot new"), _str(obj["stage"], "pivot stage"))


def _pack_json(move: PackMove) -> str:
    order = ",".join(map(str, map(int, move.order)))
    return f'{{"component":{int(move.component)},"order":[{order}],"type":"{move.kind}"}}'


def _pack_from_obj(obj: dict) -> PackMove:
    return PackMove(_int(obj["component"], "pack component"),
                    _ints(obj["order"], "pack order"))


def _split_json(move: SplitMove) -> str:
    return (f'{{"at":{int(move.at)},"component":{int(move.component)},'
            f'"new_component":{int(move.new_component)},"type":"{move.kind}",'
            f'"z":{_point_json(move.z)}}}')


def _split_from_obj(obj: dict) -> SplitMove:
    return SplitMove(_int(obj["component"], "split component"),
                     _int(obj["new_component"], "split new_component"),
                     _point(obj["z"], "split z"), _int(obj["at"], "split at"))


def _pentagon_json(move: PentagonMove) -> str:
    return (f'{{"apex":{_point_json(move.apex)},"component":{int(move.component)},'
            f'"type":"{move.kind}"}}')


def _pentagon_from_obj(obj: dict) -> PentagonMove:
    return PentagonMove(_int(obj["component"], "pentagon component"),
                        _point(obj["apex"], "pentagon apex"))


def _close_json(move: CloseRhombusMove | CloseTriangleMove) -> str:
    return f'{{"component":{int(move.component)},"type":"{move.kind}"}}'


def _close_from_obj(cls: type, obj: dict) -> CloseRhombusMove | CloseTriangleMove:
    return cls(_int(obj["component"], f"{cls.kind} component"))


# move class -> (encoder, decoder)
_CODECS = {PivotMove: (_pivot_json, _pivot_from_obj),
           PackMove: (_pack_json, _pack_from_obj),
           SplitMove: (_split_json, _split_from_obj),
           PentagonMove: (_pentagon_json, _pentagon_from_obj),
           CloseRhombusMove: (_close_json, partial(_close_from_obj, CloseRhombusMove)),
           CloseTriangleMove: (_close_json, partial(_close_from_obj, CloseTriangleMove))}
# move class -> encoder, and JSON ``type`` -> decoder
_TO_JSON = {cls: encode for cls, (encode, _) in _CODECS.items()}
_FROM_OBJ = {cls.kind: decode for cls, (_, decode) in _CODECS.items()}


def _moves_from_obj(objs: list) -> list[Move]:
    """Decode moves in order, each by the decoder of its JSON ``type``, a
    string; any other move is refused as a bad move."""
    moves = []
    for obj in objs:
        kind = obj.get("type") if isinstance(obj, dict) else None
        decode = _FROM_OBJ.get(kind) if isinstance(kind, str) else None
        if decode is None:
            raise FileFormatError(f"bad move: {obj!r:.80}")
        moves.append(decode(obj))
    return moves


def _ledger_json(ledger: CobordismLedger) -> str:
    """The ledger's canonical JSON text; ``stats``, free-form, goes through
    json's own encoder."""
    moves = ",".join([_TO_JSON[type(m)](m) for m in ledger.moves])
    stats = json.dumps(ledger.stats, sort_keys=True, separators=(",", ":"))
    return (f'{{"final_curve":{_curve_json(ledger.final_curve)},'
            f'"initial":{_curve_json(ledger.initial)},"moves":[{moves}],'
            f'"stats":{stats},"version":{LEDGER_VERSION}}}')


def ledger_to_obj(ledger: CobordismLedger) -> dict:
    return json.loads(_ledger_json(ledger))


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
    """One line of compact, key-sorted JSON (the C encoder's fast path): the
    generic encoder, whose bytes the writers' text matches."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def write_curve(path: str, curve: IntegralCurve) -> None:
    text = _curve_json(curve) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _read_json(path: str):
    """The JSON document at ``path``; text that is not UTF-8 or not JSON,
    nests past the decoder's recursion limit or has an integer longer than
    Python converts (``sys.get_int_max_str_digits()``), is refused as not
    valid JSON."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        # ValueError: UnicodeDecodeError, JSONDecodeError and the digit limit
        except (ValueError, RecursionError) as exc:
            raise FileFormatError(f"not valid JSON: {exc}") from exc


def read_curve(path: str) -> IntegralCurve:
    return curve_from_obj(_read_json(path))


def write_ledger(path: str, ledger: CobordismLedger) -> None:
    text = _ledger_json(ledger) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def read_ledger(path: str) -> CobordismLedger:
    return ledger_from_obj(_read_json(path))


def export_off(path: str, chain: DomeChain) -> None:
    """Write a dome chain's triangles and rhombus cells as an OFF mesh
    (visualization only).

    The mesh has one vertex per chain vertex id that a face uses, in order
    of first use, at its coordinates in ``chain.points``; distinct ids stay
    distinct vertices even where their coordinates coincide, as in the
    chain identity.  Rhombus cells are triangulated along their first
    diagonal purely for export; the split edges are not part of the chain.
    """
    cells = chain.triangle_ids.tolist()
    for a, b, c, d in chain.rhombus_cell_ids.tolist():
        cells += [[a, b, c], [a, c, d]]
    index: dict[int, int] = {}  # chain vertex id -> OFF vertex
    faces = [[index.setdefault(i, len(index)) for i in cell] for cell in cells]
    vertices = chain.points[list(index)].tolist()

    with open(path, "w", encoding="utf-8") as fh:
        fh.write("OFF\n")
        fh.write("# visualization only: rhombus cells triangulated along a diagonal\n")
        fh.write(f"{len(vertices)} {len(faces)} 0\n")
        for x, y, z in vertices:
            fh.write(f"{x!r} {y!r} {z!r}\n")
        for a, b, c in faces:
            fh.write(f"3 {a} {b} {c}\n")
