#!/usr/bin/env python3
"""rhombidome benchmark: three workloads driven through the package's public API.

Usage (from the repository root)::

    python3 bench/run.py --workload reduce_large --seed 1 --seconds 30 --trace 0

Workloads (see bench/README.md for why each exists and what it predicts):

* ``reduce_large``   -- ``rhombidome reduce`` on an n=96 curve file.
* ``verify_ledgers`` -- ``rhombidome validate`` on an n=96 ledger file.
* ``moduli_certs``   -- ``rhombidome moduli isotropy`` on antiprism_band:k=16.

A run sets up its inputs from ``--seed`` several times (``setup_s`` is the
median), then repeats a fixed list of items in passes until ``--seconds``
have gone by and the tail percentile has ten items beyond it.  Every time
is scaled by a calibration probe run between items (see CAL_REF_S).  An
item's time is its mean over the passes; ``item_ms_p50`` is the median item
time, and the tail is taken over every pass.  Every item is checked; pass 1 fixes each item's
exact counts and digests, later passes and later runs with the same seed
must reproduce them.  With ``--trace 0`` the
last stdout line carries the end-to-end metrics of that untraced run; with
``--trace 1`` it carries per-layer metrics from a traced run, measured by
rebinding package functions (bench/spans.py) in alternating untraced and
traced passes.  Earlier stdout lines list every metric with its unit and
direction, the environment, the exact counts and the digests.
"""

from __future__ import annotations

import os

# One process, one BLAS thread: set before numpy loads its BLAS.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# Set-up runs at least SETUP_MIN times and until SETUP_SECONDS have gone by,
# at most SETUP_MAX times; setup_s is the median.
SETUP_MIN, SETUP_MAX, SETUP_SECONDS = 3, 15, 2.0
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0)

# The host's speed drifts by up to half over minutes, in CPU time as much as
# in wall time.  A fixed probe of the benchmark's own code runs before the
# first timed item, after every timed item and after every set-up.  Each time
# is scaled by CAL_REF_S / (median of the probes around it), i.e. to seconds
# on a host where the probe takes CAL_REF_S.  Raw times are printed too.
CAL_REF_S = 0.005
SETUP_PROBES = 5
CAL_WINDOW = 2  # an item's probes: this many before it and as many after

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "items_per_s": ("1/s", "higher"),
    "item_ms_p50": ("ms", "lower"),
    "item_ms_tail": ("ms", "lower"),
    "pass_rate": ("ratio", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "work_per_item": ("count", "lower"),
    "document_kb_per_item": ("KiB", "lower"),
}

PER_LAYER = {
    "cobordism.reduce_to_rhombi.ms": ("ms", "lower"),
    "cobordism.planarize.ms": ("ms", "lower"),
    "cobordism.pack.ms": ("ms", "lower"),
    "cobordism.steinitz_order.ms": ("ms", "lower"),
    "cobordism.peel.ms": ("ms", "lower"),
    "cobordism.pentagon_split.ms": ("ms", "lower"),
    "cobordism.pentagon_split.calls": ("count", "lower"),
    "cobordism.planarize_moves": ("count", "lower"),
    "cobordism.pack_moves": ("count", "lower"),
    "cobordism.splits": ("count", "lower"),
    "cobordism.fixes": ("count", "lower"),
    "cobordism.k_over_budget": ("ratio", "lower"),
    "cobordism.self_ms": ("ms", "lower"),
    "surface.validate_ledger.ms": ("ms", "lower"),
    "surface.assemble_from_ledger.ms": ("ms", "lower"),
    "surface.signed_segment_counts.ms": ("ms", "lower"),
    "surface.cell_checks.ms": ("ms", "lower"),
    "surface.seam_pairs": ("count", "lower"),
    "surface.self_ms": ("ms", "lower"),
    "files.write_ledger.ms": ("ms", "lower"),
    "files.ledger_to_obj.ms": ("ms", "lower"),
    "files.dump_json.ms": ("ms", "lower"),
    "files.read_ledger.ms": ("ms", "lower"),
    "files.ledger_from_obj.ms": ("ms", "lower"),
    "files.self_ms": ("ms", "lower"),
    "geom.dist.calls": ("count", "lower"),
    "cli.main.ms": ("ms", "lower"),
    "cli.self_ms": ("ms", "lower"),
    "moduli.isotropy_certificate.ms": ("ms", "lower"),
    "moduli.realize_surface.ms": ("ms", "lower"),
    "moduli.realize_surface.self_ms": ("ms", "lower"),
    "moduli.surface_tangent_basis.ms": ("ms", "lower"),
    "moduli.surface_tangent_basis.calls": ("count", "lower"),
    "moduli.polygon_tangent_basis.ms": ("ms", "lower"),
    "moduli.pairing_gram.ms": ("ms", "lower"),
    "moduli.pairing_gram.calls": ("count", "lower"),
    "moduli.symplectic_pairing.calls": ("count", "lower"),
    "moduli.self_ms": ("ms", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources, unusable inputs)."""


def _load_package():
    """Import rhombidome from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "rhombidome" / "__init__.py").is_file():
        raise BenchError(f"no rhombidome sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import rhombidome
    if Path(rhombidome.__file__).resolve().parent != SRC / "rhombidome":
        raise BenchError(f"imported rhombidome from {rhombidome.__file__}, not {SRC}")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# inputs


def random_curve(n: int, rng):
    from rhombidome.curve import random_integral_curve
    return random_integral_curve(n, rng)


# ---------------------------------------------------------------------------
# calibration


_CAL_DOC = [{"id": f"m{i}", "p": [i * 0.37, -i / 3.0, i * 1.1], "n": i, "ok": i % 3 == 0}
            for i in range(500)]


def calibration_probe() -> float:
    """Seconds taken by a fixed mix of JSON, numpy and pure-Python work.

    ``gc`` is off inside the probe, so its time does not depend on how many
    objects the workload keeps alive.
    """
    import numpy as np
    gc.disable()
    try:
        start = perf_counter()
        json.loads(json.dumps(_CAL_DOC))
        a = np.linspace(0.0, 1.0, 36).reshape(6, 6)
        for _ in range(60):
            a = np.tanh(a @ a.T + 0.5)
        total = 0
        for i in range(20000):
            total += i * i % 7
        return perf_counter() - start
    finally:
        gc.enable()


def calibration_scale(probes: list[float]) -> float:
    return CAL_REF_S / statistics.median(probes)


def item_scales(probes: list[float]) -> list[float]:
    """Scale of item j, which ran between probes[j] and probes[j + 1]."""
    return [calibration_scale(probes[max(0, j + 1 - CAL_WINDOW):j + 1 + CAL_WINDOW])
            for j in range(len(probes) - 1)]


# ---------------------------------------------------------------------------
# workloads


@dataclass
class ItemResult:
    """Checked outcome of one item; every field must repeat exactly."""

    ok: bool
    failure: str = ""
    counts: dict = field(default_factory=dict)
    ledger_sha: str = ""
    output_sha: str = ""

    def key(self) -> tuple:
        return (self.ok, self.failure, tuple(sorted(self.counts.items())),
                self.ledger_sha, self.output_sha)


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``rhombidome.cli.main(argv)`` with stdout and stderr captured."""
    from rhombidome import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _stats_counts(stats: dict) -> dict:
    keys = ("n", "k", "budget", "planarize_moves", "pack_moves", "splits", "fixes")
    return {key: int(stats[key]) for key in keys}


def _gate_stats(stats: dict) -> str:
    return "k over budget" if stats["k"] > stats["budget"] else ""


class Workload:
    """A fixed, seeded list of items; ``call`` is timed, ``check`` is not."""

    name = ""
    tail_pct = 50.0
    reduces = False  # items run planarize/pack/peel

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.curves: list = []  # per item, for the planarize/pack probes

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    def call(self, i: int):
        raise NotImplementedError

    def check(self, i: int, raw) -> ItemResult:
        raise NotImplementedError

    def work(self, result: ItemResult) -> int:
        return result.counts["k"]

    def document_bytes(self, result: ItemResult) -> int:
        return result.counts["ledger_bytes"]

    def final_check(self, first_pass: list[ItemResult]) -> list[str]:
        """Checks run once after the timed loop; returns problems found."""
        return []


class ReduceLarge(Workload):
    name = "reduce_large"
    tail_pct = 75.0
    reduces = True
    size, n = 5, 96

    def setup(self, seed: int) -> None:
        import numpy as np
        from rhombidome import files
        rng = np.random.default_rng(seed)
        (self.workdir / "curves").mkdir(parents=True, exist_ok=True)
        (self.workdir / "ledgers").mkdir(parents=True, exist_ok=True)
        self.curves, self.paths = [], []
        for i in range(self.size):
            curve = random_curve(self.n, rng)
            path = self.workdir / "curves" / f"c{i}.json"
            files.write_curve(str(path), curve)
            self.curves.append(curve)
            self.paths.append((str(path), str(self.workdir / "ledgers" / f"l{i}.json")))
        warm = self.workdir / "curves" / "warm.json"
        files.write_curve(str(warm), random_curve(12, rng))
        if run_cli(["reduce", "--in", str(warm),
                    "--out", str(self.workdir / "warm-ledger.json")])[0] != 0:
            raise BenchError("warm-up reduction failed")

    def __len__(self) -> int:
        return len(self.paths)

    def call(self, i: int):
        src, out = self.paths[i]
        return run_cli(["reduce", "--in", src, "--out", out])

    def check(self, i: int, raw) -> ItemResult:
        if isinstance(raw, Exception):
            return ItemResult(False, type(raw).__name__)
        code, stdout = raw
        if code != 0:
            return ItemResult(False, f"exit {code}")
        doc = json.loads(stdout)
        if not doc["valid"]:
            return ItemResult(False, "report failed")
        data = Path(self.paths[i][1]).read_bytes()
        counts = _stats_counts(doc["stats"])
        counts["ledger_bytes"] = len(data)
        failure = _gate_stats(doc["stats"])
        return ItemResult(not failure, failure, counts, sha256(data), sha256(stdout.encode()))

    def final_check(self, first_pass: list[ItemResult]) -> list[str]:
        """Every written ledger must re-read and re-serialize to the same bytes."""
        from rhombidome import files
        problems = []
        for (_, out), result in zip(self.paths, first_pass):
            if not result.ok:
                continue
            data = Path(out).read_bytes()
            again = files.dump_json(files.ledger_to_obj(files.read_ledger(out))).encode()
            if again != data:
                problems.append(f"{out}: ledger does not round-trip byte for byte")
        return problems


class VerifyLedgers(Workload):
    name = "verify_ledgers"
    tail_pct = 75.0
    size, n = 5, 96

    def setup(self, seed: int) -> None:
        import numpy as np
        from rhombidome import cobordism, files
        rng = np.random.default_rng(seed)
        (self.workdir / "ledgers").mkdir(parents=True, exist_ok=True)
        self.paths, self.expected = [], []
        for i in range(self.size):
            ledger = cobordism.reduce_to_rhombi(random_curve(self.n, rng))
            path = self.workdir / "ledgers" / f"l{i}.json"
            files.write_ledger(str(path), ledger)
            data = path.read_bytes()
            counts = _stats_counts(ledger.stats)
            counts["ledger_bytes"] = len(data)
            self.paths.append(str(path))
            self.expected.append((counts, sha256(data)))
        warm = self.workdir / "warm-ledger.json"
        files.write_ledger(str(warm), cobordism.reduce_to_rhombi(random_curve(12, rng)))
        if run_cli(["validate", "--in", str(warm)])[0] != 0:
            raise BenchError("warm-up validation failed")

    def __len__(self) -> int:
        return len(self.paths)

    def call(self, i: int):
        return run_cli(["validate", "--in", self.paths[i]])

    def check(self, i: int, raw) -> ItemResult:
        if isinstance(raw, Exception):
            return ItemResult(False, type(raw).__name__)
        code, stdout = raw
        if code != 0:
            return ItemResult(False, f"exit {code}")
        if not json.loads(stdout)["passed"]:
            return ItemResult(False, "report failed")
        counts, digest = self.expected[i]
        failure = _gate_stats(counts)
        return ItemResult(not failure, failure, dict(counts), digest,
                          sha256(stdout.encode()))


class ModuliCerts(Workload):
    name = "moduli_certs"
    tail_pct = 80.0
    size = 10
    surface = "antiprism_band:k=16"

    def setup(self, seed: int) -> None:
        import numpy as np
        rng = np.random.default_rng(seed)
        self.seeds = [int(s) for s in rng.integers(0, 2 ** 31, size=self.size + 1)]
        if self.call(self.size)[0] != 0:  # warm-up on a seed outside the items
            raise BenchError("warm-up isotropy certificate failed")
        self.seeds.pop()

    def __len__(self) -> int:
        return len(self.seeds)

    def call(self, i: int):
        return run_cli(["moduli", "isotropy", "--surface", self.surface,
                        "--trials", "1", "--seed", str(self.seeds[i])])

    def check(self, i: int, raw) -> ItemResult:
        if isinstance(raw, Exception):
            return ItemResult(False, type(raw).__name__)
        code, stdout = raw
        if code != 0:
            return ItemResult(False, f"exit {code}")
        report = json.loads(stdout)
        if not report["passed"]:
            return ItemResult(False, "report failed")
        counts = {"tangent_dim": int(report["tangent_dims"][0]),
                  "report_bytes": len(stdout.encode())}
        return ItemResult(True, "", counts, "", sha256(stdout.encode()))

    def work(self, result: ItemResult) -> int:
        return result.counts["tangent_dim"]

    def document_bytes(self, result: ItemResult) -> int:
        return result.counts["report_bytes"]


WORKLOADS = {w.name: w for w in (ReduceLarge, VerifyLedgers, ModuliCerts)}


# ---------------------------------------------------------------------------
# measurement


def _timed(fn, *args):
    """(seconds, result or the exception raised)."""
    start = perf_counter()
    try:
        result = fn(*args)
    except Exception as exc:  # a failed item is counted, never dropped
        result = exc
    return perf_counter() - start, result


@dataclass
class Pass:
    durations: list[float]
    results: list[ItemResult]
    scales: list[float] = field(default_factory=list)

    @property
    def scaled(self) -> list[float]:
        """Durations scaled to the reference host speed (see CAL_REF_S)."""
        return [d * scale for d, scale in zip(self.durations, self.scales, strict=True)]

    @property
    def passed(self) -> int:
        return sum(r.ok for r in self.results)


class Run:
    """Passes over a workload's items, checked against the first pass."""

    def __init__(self, workload: Workload):
        self.workload = workload
        self.first: list[ItemResult] | None = None
        self.mismatches: list[str] = []
        self.probes: list[float] = []  # calibration probes, in run order

    def one_pass(self, call=None, calibrate=False) -> Pass:
        call = call or self.workload.call
        durations, results = [], []
        for i in range(len(self.workload)):
            seconds, raw = _timed(call, i)
            result = self.workload.check(i, raw)
            del raw  # free this item's ledger before the next item runs
            durations.append(seconds)
            results.append(result)
            if calibrate:
                self.probes.append(calibration_probe())
            if self.first is not None and result.key() != self.first[i].key():
                self.mismatches.append(f"item {i} differs between passes")
        if self.first is None:
            self.first = results
        return Pass(durations, results)


def percentile(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    rank = (len(ordered) - 1) * pct / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def items_needed(pct: float) -> int:
    """Samples needed for at least ten to lie beyond the pct-th percentile."""
    return math.ceil(10.0 / (1.0 - pct / 100.0) - 1e-9)


def tail_percentile(wanted: float, samples: int) -> float:
    if samples >= items_needed(wanted):
        return wanted
    for pct in TAIL_LADDER:
        if samples >= items_needed(pct):
            return pct
    return 100.0


def measure(run: Run, seconds: float) -> list[Pass]:
    """Untraced passes until ``seconds`` have passed and the tail is covered."""
    need = items_needed(run.workload.tail_pct)
    passes, passed = [], 0
    start = perf_counter()
    run.probes.append(calibration_probe())
    while True:
        p = run.one_pass(calibrate=True)
        passes.append(p)
        passed += p.passed
        elapsed = perf_counter() - start
        if elapsed >= seconds and (passed >= need or elapsed >= 4 * seconds):
            break
    scales = item_scales(run.probes)
    for k, p in enumerate(passes):
        p.scales = scales[k * len(p.durations):(k + 1) * len(p.durations)]
    return passes


def time_metrics(durations: list[list[float]], ok: list[int], passed: int,
                 pct: float) -> dict:
    """items_per_s, item_ms_p50 and item_ms_tail from per-pass item durations."""
    return {
        "items_per_s": passed / sum(sum(d) for d in durations),
        "item_ms_p50": 1e3 * statistics.median(
            statistics.fmean(d[i] for d in durations) for i in ok),
        "item_ms_tail": 1e3 * percentile([d[i] for d in durations for i in ok], pct),
    }


def end_to_end_metrics(run: Run, passes: list[Pass], setup_s: float,
                       peak_rss_mb: float) -> tuple[dict, dict]:
    workload = run.workload
    ok = [i for i, r in enumerate(run.first) if r.ok]
    if not ok:
        raise BenchError("no item passed its check")
    samples = len(passes) * len(ok)
    pct = tail_percentile(workload.tail_pct, samples)
    attempted = sum(len(p.results) for p in passes)
    passed = sum(p.passed for p in passes)
    metrics = {
        "setup_s": setup_s,
        **time_metrics([p.scaled for p in passes], ok, passed, pct),
        "pass_rate": passed / attempted,
        "peak_rss_mb": peak_rss_mb,
        "work_per_item": statistics.fmean(workload.work(run.first[i]) for i in ok),
        "document_kb_per_item": statistics.fmean(
            workload.document_bytes(run.first[i]) for i in ok) / 1024.0,
    }
    scales = [scale for p in passes for scale in p.scales]
    notes = {"tail_percentile": pct, "tail_samples": samples, "passes": len(passes),
             "attempted": attempted, "failed": attempted - passed,
             "raw": time_metrics([p.durations for p in passes], ok, passed, pct),
             "calibration_scale": {"median": statistics.median(scales),
                                   "min": min(scales), "max": max(scales)}}
    return metrics, notes


def traced_metrics(run: Run, seconds: float, tracer) -> tuple[dict, dict]:
    """Alternate untraced and traced passes; per-layer means per traced item."""
    from rhombidome import cobordism
    workload = run.workload
    untraced, traced, probes = [], [], {"planarize": [], "pack": []}
    start = perf_counter()

    def traced_call(i):
        return tracer.item_span(i, workload.call, i)

    while not traced or perf_counter() - start < seconds:
        untraced.append(run.one_pass())
        tracer.install()
        try:
            traced.append(run.one_pass(traced_call))
        finally:
            tracer.uninstall()
        if workload.reduces:  # public planarize, then pack on its result
            for curve, result in zip(workload.curves, traced[-1].results):
                if result.ok:
                    t_plan, planar = _timed(cobordism.planarize, curve)
                    t_pack, _ = _timed(cobordism.pack, planar[0])
                    probes["planarize"].append(t_plan)
                    probes["pack"].append(t_pack)

    items = sum(len(p.results) for p in traced)
    inclusive, own, calls, layer_self = tracer.totals()

    def ms(total: float) -> float:
        return 1e3 * total / items

    ok = [r for p in traced for r in p.results if r.ok]

    def mean_count(key: str) -> float:
        if not workload.reduces or not ok:
            return 0.0
        return statistics.fmean(r.counts[key] for r in ok)

    plan_ms = 1e3 * statistics.fmean(probes["planarize"]) if probes["planarize"] else 0.0
    pack_ms = 1e3 * statistics.fmean(probes["pack"]) if probes["pack"] else 0.0
    reduce_ms = ms(inclusive["cobordism.reduce_to_rhombi"])
    metrics = {
        "cobordism.reduce_to_rhombi.ms": reduce_ms,
        "cobordism.planarize.ms": plan_ms,
        "cobordism.pack.ms": pack_ms,
        "cobordism.steinitz_order.ms": ms(inclusive["cobordism.steinitz_order"]),
        "cobordism.peel.ms": reduce_ms - plan_ms - pack_ms if workload.reduces else 0.0,
        "cobordism.pentagon_split.ms": ms(inclusive["cobordism.pentagon_split"]),
        "cobordism.pentagon_split.calls": calls["cobordism.pentagon_split"] / items,
        "cobordism.planarize_moves": mean_count("planarize_moves"),
        "cobordism.pack_moves": mean_count("pack_moves"),
        "cobordism.splits": mean_count("splits"),
        "cobordism.fixes": mean_count("fixes"),
        "cobordism.k_over_budget": (statistics.fmean(r.counts["k"] / r.counts["budget"]
                                                     for r in ok)
                                    if workload.reduces and ok else 0.0),
        "cobordism.self_ms": ms(layer_self["cobordism"]),
        "surface.validate_ledger.ms": ms(inclusive["surface.validate_ledger"]),
        "surface.assemble_from_ledger.ms": ms(inclusive["surface.assemble_from_ledger"]),
        "surface.signed_segment_counts.ms": ms(inclusive["surface.signed_segment_counts"]),
        "surface.cell_checks.ms": ms(own["surface.validate_ledger"]),
        "surface.seam_pairs": tracer.counts["surface.seam_pairs"] / items,
        "surface.self_ms": ms(layer_self["surface"]),
        "files.write_ledger.ms": ms(inclusive["files.write_ledger"]),
        "files.ledger_to_obj.ms": ms(inclusive["files.ledger_to_obj"]),
        "files.dump_json.ms": ms(inclusive["files.dump_json"]),
        "files.read_ledger.ms": ms(inclusive["files.read_ledger"]),
        "files.ledger_from_obj.ms": ms(inclusive["files.ledger_from_obj"]),
        "files.self_ms": ms(layer_self["files"]),
        "geom.dist.calls": tracer.counts["geom.dist.calls"] / items,
        "cli.main.ms": ms(inclusive["cli.main"]),
        "cli.self_ms": ms(own["cli.main"]),
        "moduli.isotropy_certificate.ms": ms(inclusive["moduli.isotropy_certificate"]),
        "moduli.realize_surface.ms": ms(inclusive["moduli.realize_surface"]),
        "moduli.realize_surface.self_ms": ms(own["moduli.realize_surface"]),
        "moduli.surface_tangent_basis.ms": ms(inclusive["moduli.surface_tangent_basis"]),
        "moduli.surface_tangent_basis.calls": calls["moduli.surface_tangent_basis"] / items,
        "moduli.polygon_tangent_basis.ms": ms(inclusive["moduli.polygon_tangent_basis"]),
        "moduli.pairing_gram.ms": ms(inclusive["moduli.pairing_gram"]),
        "moduli.pairing_gram.calls": calls["moduli.pairing_gram"] / items,
        "moduli.symplectic_pairing.calls":
            tracer.counts["moduli.symplectic_pairing.calls"] / items,
        "moduli.self_ms": ms(layer_self["moduli"]),
        "trace.overhead_s": (statistics.fmean(sum(p.durations) for p in traced)
                             - statistics.fmean(sum(p.durations) for p in untraced)),
    }
    attempted = items + sum(len(p.results) for p in untraced)
    passed = sum(p.passed for p in traced + untraced)
    notes = {"traced_passes": len(traced), "traced_items": items,
             "spans": len(tracer.spans), "attempted": attempted,
             "failed": attempted - passed,
             "harness_self_ms": ms(layer_self["item"])}
    return metrics, notes


# ---------------------------------------------------------------------------
# records


def code_digest() -> str:
    """Digest of the package and benchmark sources: keys determinism records."""
    h = hashlib.sha256()
    for path in sorted(list((SRC / "rhombidome").glob("*.py")) + list(BENCH.glob("*.py"))):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def exact_record(workload: Workload, first: list[ItemResult]) -> dict:
    """Item-ordered totals of every exact count, failures, and digests."""
    totals: Counter = Counter()
    failures: Counter = Counter()
    ledgers, outputs = hashlib.sha256(), hashlib.sha256()
    for result in first:
        totals.update(result.counts)
        if not result.ok:
            failures[result.failure] += 1
        ledgers.update(result.ledger_sha.encode() + b"\n")
        outputs.update(result.output_sha.encode() + b"\n")
    return {"items": len(first), "counts": dict(sorted(totals.items())),
            "failures": dict(sorted(failures.items())),
            "ledger_sha256": ledgers.hexdigest(), "output_sha256": outputs.hexdigest()}


def compare_record(path: Path, record: dict) -> list[str]:
    """A run repeated with the same seed and code must reproduce ``record``."""
    if path.is_file():
        previous = json.loads(path.read_text(encoding="utf-8"))
        if previous != record:
            return [f"exact counts or digests differ from the earlier run in {path.name}"]
        return []
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, sort_keys=True) + "\n", encoding="utf-8")
    return []


def environment(seed: int) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = ""
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), "")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu or platform.processor(),
        "gc_enabled": gc.isenabled(),
        "seed": seed,
    }


def blas_threads() -> dict:
    """Thread count reported by each loaded OpenBLAS (numpy's and scipy's)."""
    import ctypes
    found = {}
    with contextlib.suppress(OSError), open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line.lower() and ".so" in line})
    for lib in libs:
        with contextlib.suppress(OSError):
            handle = ctypes.CDLL(lib)
            for symbol in ("scipy_openblas_get_num_threads64_",
                           "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
                fn = getattr(handle, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    found[Path(lib).name] = int(fn())
                    break
    return found


# ---------------------------------------------------------------------------
# entry point


def print_metrics(table: dict, values: dict) -> dict:
    out = {}
    for name, (unit, better) in table.items():
        value = values[name]
        print(f"metric {name} {value!r} {unit} {better}")
        out[name] = {"value": value, "unit": unit}
    return out


def bench(workload_name: str, seed: int, seconds: float, trace: bool) -> int:
    _load_package()
    workdir = WORK / f"{workload_name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[workload_name](workdir)
        setups, scaled = [], []
        while len(setups) < SETUP_MIN or (len(setups) < SETUP_MAX and
                                          sum(setups) < SETUP_SECONDS):
            seconds_taken, error = _timed(workload.setup, seed)
            if isinstance(error, Exception):
                raise BenchError(f"set-up failed: {error!r}")
            setups.append(seconds_taken)
            probes = [calibration_probe() for _ in range(SETUP_PROBES)]
            scaled.append(seconds_taken * calibration_scale(probes))
        setup_s = statistics.median(scaled)
        print("env " + json.dumps(environment(seed), sort_keys=True))
        print(f"setup_s runs {setups!r} scaled {scaled!r}")
        gc.collect()

        run = Run(workload)
        if trace:
            from spans import Tracer
            tracer = Tracer()
            values, notes = traced_metrics(run, seconds, tracer)
            tracer.dump(WORK / f"spans-{workload_name}-seed{seed}.jsonl")
            table = PER_LAYER
        else:
            passes = measure(run, seconds)
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            values, notes = end_to_end_metrics(run, passes, setup_s, peak)
            table = END_TO_END
        problems = list(dict.fromkeys(run.mismatches))
        problems += workload.final_check(run.first)
        record = exact_record(workload, run.first)
        problems += compare_record(
            WORK / "records" / f"{workload_name}-seed{seed}-{code_digest()[:16]}.json",
            record)

        print("notes " + json.dumps(notes, sort_keys=True))
        print(f"error_rate {notes['failed'] / notes['attempted']!r} "
              f"({notes['failed']} of {notes['attempted']} attempted)")
        for name, value in record["counts"].items():
            print(f"count {name} {value}")
        for name, value in record["failures"].items():
            print(f"failures {name} {value}")
        print(f"digest ledgers {record['ledger_sha256']}")
        print(f"digest outputs {record['output_sha256']}")
        for problem in problems:
            print(f"bench: {problem}", file=sys.stderr)
        metrics = print_metrics(table, values)
        print(json.dumps({"correct": not problems, "attempted": notes["attempted"],
                          "failed": notes["failed"], "metrics": metrics}))
        return 0 if not problems else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        return bench(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
