"""Command line entry points: reduce, validate, moduli certificates, census.

Exit codes: 0 success, 1 semantic failure (a check did not hold), 2 input
or usage error.  All randomness flows from the --seed flag; reports embed
the seed used.

Only the moduli command imports :mod:`rhombidome.moduli`, and with it
scipy; reduce, validate and census load numpy alone, which about halves
the wall time and the peak memory of a reduce or validate process on a
96-edge curve (README, "Install").
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys

import numpy as np

from . import cobordism, files, surface
from .curve import (
    IntegralCurve,
    InvalidCurveError,
    NonIntegerEdgeError,
    from_integer_curve,
    random_integral_curve,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

# Largest K of a NAME:k=K surface spec.  antiprism_band:k=500 has 1,000
# vertices, a 2,000 x 3,000 rigidity matrix (48 MB) and a 3,000 x 3,000
# complete Q from its kernel's QR (72 MB); polygon:k=500 has a 503 x 1,500
# scheme matrix (6 MB).  That is 2.5 times the 400 vertices of the largest
# measured isotropy trial, whose time grows as K^3.
MAX_SURFACE_K = 500

CENSUS_SCHEMA = "1"
CENSUS_HEADER = ["schema_version", "seed", "n", "k", "budget",
                 "planarize_moves", "pack_moves", "splits", "fixes"]


def _err(message: str) -> None:
    print(f"rhombidome: {message}", file=sys.stderr)


def parse_surface_spec(spec: str):
    """Resolve NAME or NAME:k=K into a catalog surface or ('polygon', K)."""
    name, _, params = spec.partition(":")
    k = None
    if params:
        key, _, value = params.partition("=")
        if key != "k":
            raise surface.UnknownNameError(f"unknown surface parameter {key!r}")
        try:
            k = int(value)
        except ValueError:
            raise ValueError(f"surface parameter k={value!r} is not an integer") from None
        if k > MAX_SURFACE_K:
            raise ValueError(f"surface parameter k={k} is more than the limit of "
                             f"{MAX_SURFACE_K}")
    if name == "polygon":
        if k is None:
            raise surface.UnknownNameError("polygon spec needs :k=K")
        return ("polygon", k)
    return ("surface", surface.catalog(name, k=k))


def cmd_reduce(args) -> int:
    try:
        raw = files.read_curve(args.infile)
        curve = from_integer_curve(raw.components)
    except (OSError, files.FileFormatError, NonIntegerEdgeError,
            InvalidCurveError) as exc:
        _err(str(exc))
        return EXIT_USAGE
    try:
        ledger = cobordism.reduce_to_rhombi(curve)
        report = surface.validate_ledger(ledger)
    except Exception as exc:
        _err(f"reduction failed: {exc}")
        return EXIT_FAIL
    try:
        files.write_ledger(args.out, ledger)
        if args.off and report.chain is not None:
            files.export_off(args.off, report.chain)
    except OSError as exc:
        _err(str(exc))
        return EXIT_USAGE
    print(json.dumps({"stats": {k: v for k, v in ledger.stats.items()
                                if k != "per_component"},
                      "valid": report.passed}, sort_keys=True))
    if not report.passed:
        _err("ledger failed validation")
        for name, ok, detail in report.entries:
            if not ok:
                _err(f"  {name}: {detail}")
        return EXIT_FAIL
    return EXIT_OK


def cmd_validate(args) -> int:
    try:
        ledger = files.read_ledger(args.infile)
    except (OSError, files.FileFormatError) as exc:
        _err(str(exc))
        return EXIT_USAGE
    report = surface.validate_ledger(ledger)
    print(json.dumps(report.to_obj(), sort_keys=True, indent=2))
    return EXIT_OK if report.passed else EXIT_FAIL


def _moduli_dims(args) -> int:
    from . import moduli
    kind, payload = parse_surface_spec(args.surface)
    rng = np.random.default_rng(args.seed)
    if kind == "polygon":
        k = payload
        point = moduli.random_polygon_point([k], rng)
        scheme = len(moduli.polygon_tangent_basis(point))
        orbit = len(moduli.rotation_orbit_basis(point))
        expected_scheme = 2 * k - 3
        report = {
            "surface": args.surface,
            "seed": args.seed,
            "scheme_dim": scheme,
            "moduli_dim": scheme - orbit,
            "expected_scheme_dim": expected_scheme,
            "expected_moduli_dim": max(expected_scheme - 3, 0),
        }
        ok = (scheme == report["expected_scheme_dim"]
              and report["moduli_dim"] == report["expected_moduli_dim"])
    else:
        s = payload
        s.validate()  # the certificates validate their own surface
        realization = moduli.realize_surface(s, seed=args.seed)
        dim = len(moduli.surface_tangent_basis(realization))
        report = {
            "surface": s.name,
            "seed": args.seed,
            "tangent_dim": dim,
            "min_expected": 3,
        }
        ok = dim >= 3
    report["passed"] = bool(ok)
    print(json.dumps(report, sort_keys=True, indent=2))
    return EXIT_OK if ok else EXIT_FAIL


def _moduli_certificate(args) -> int:
    from . import moduli
    kind, payload = parse_surface_spec(args.surface)
    if kind != "surface":
        _err(f"{args.what} needs a catalog surface")
        return EXIT_USAGE
    if args.what == "isotropy":
        report = moduli.isotropy_certificate(payload, trials=args.trials, seed=args.seed)
    else:
        report = moduli.rank_certificate(payload, seed=args.seed)
    report["seed"] = args.seed
    print(json.dumps(report, sort_keys=True, indent=2))
    return EXIT_OK if report["passed"] else EXIT_FAIL


def cmd_moduli(args) -> int:
    from . import moduli  # the except clause names its errors
    try:
        if args.what == "dims":
            return _moduli_dims(args)
        return _moduli_certificate(args)
    except (surface.UnknownNameError, ValueError) as exc:
        if isinstance(exc, (moduli.NotOrientableError,
                            moduli.BoundaryShapeMismatchError)):
            _err(str(exc))
            return EXIT_FAIL
        _err(str(exc.args[0]))  # str() of a KeyError would quote the message
        return EXIT_USAGE


def _row(seed: int, stats: dict) -> dict:
    """One census row: the schema version, the seed and the ledger stats."""
    return {"schema_version": CENSUS_SCHEMA, "seed": seed,
            **{key: stats[key] for key in CENSUS_HEADER[2:]}}


def _census_row(seed: int, n: int) -> dict:
    rng = np.random.default_rng(seed)
    curve = random_integral_curve(n, rng)
    ledger = cobordism.reduce_to_rhombi(curve)
    report = surface.validate_ledger(ledger)
    if not report.passed:
        raise RuntimeError(f"instance seed={seed} n={n} failed validation")
    return _row(seed, ledger.stats)


def _pentagon_fixture_row() -> dict:
    radius = 1.0 / (2.0 * np.sin(np.pi / 5.0))
    angles = 2.0 * np.pi * np.arange(5) / 5.0
    pentagon = np.column_stack([radius * np.cos(angles),
                                radius * np.sin(angles), np.zeros(5)])
    ledger = cobordism.reduce_to_rhombi(IntegralCurve([pentagon]))
    return _row(-1, ledger.stats)


def cmd_census(args) -> int:
    if args.n_min < 5 or args.n_max < args.n_min:
        _err("census needs 5 <= n-min <= n-max")
        return EXIT_USAGE
    if args.samples < (0 if args.pentagon_fixture else 1):
        _err("census needs --samples >= 1 (or 0 with --pentagon-fixture)")
        return EXIT_USAGE
    rows = []
    try:
        if args.pentagon_fixture:
            rows.append(_pentagon_fixture_row())
        index = 0
        for n in range(args.n_min, args.n_max + 1):
            for _ in range(args.samples):
                instance_seed = (args.seed + 1_000_003 * index) % (2 ** 63)
                rows.append(_census_row(instance_seed, n))
                index += 1
    except RuntimeError as exc:
        _err(str(exc))
        return EXIT_FAIL
    try:
        with open(args.csv, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=CENSUS_HEADER)
            writer.writeheader()
            writer.writerows(rows)
    except OSError as exc:
        _err(str(exc))
        return EXIT_USAGE
    print(f"wrote {len(rows)} rows to {args.csv}")
    return EXIT_OK


def _moduli_seed(text: str) -> int:
    """A moduli --seed: numpy's generators take non-negative integers only."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="rhombidome",
        description="Reduce closed unit-edge curves to unit rhombi and "
                    "certify linkage-moduli facts.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_reduce = sub.add_parser("reduce", help="reduce a curve file to rhombi")
    p_reduce.add_argument("--in", dest="infile", required=True)
    p_reduce.add_argument("--out", required=True)
    p_reduce.add_argument("--off", default=None,
                          help="also export the dome chain as an OFF mesh")
    p_reduce.set_defaults(func=cmd_reduce)

    p_val = sub.add_parser("validate", help="validate a ledger file")
    p_val.add_argument("--in", dest="infile", required=True)
    p_val.set_defaults(func=cmd_validate)

    p_mod = sub.add_parser("moduli", help="run a moduli certificate")
    p_mod.add_argument("what", choices=["dims", "isotropy", "rank"])
    p_mod.add_argument("--surface", required=True,
                       help="catalog name[:k=K] or polygon:k=K")
    p_mod.add_argument("--seed", type=_moduli_seed, default=0)
    p_mod.add_argument("--trials", type=int, default=20)
    p_mod.set_defaults(func=cmd_moduli)

    p_cen = sub.add_parser("census", help="reduce random curves, tabulate k")
    p_cen.add_argument("--n-min", type=int, default=6)
    p_cen.add_argument("--n-max", type=int, default=6)
    p_cen.add_argument("--samples", type=int, default=10)
    p_cen.add_argument("--seed", type=int, default=0)
    p_cen.add_argument("--csv", required=True)
    p_cen.add_argument("--pentagon-fixture", action="store_true",
                       dest="pentagon_fixture",
                       help="prepend a deterministic regular-pentagon row")
    p_cen.set_defaults(func=cmd_census)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except Exception as exc:  # keep the 0/1/2 contract
        _err(f"unexpected error: {exc}")
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
