#!/usr/bin/env python3
"""Self-test of the benchmark.  Run from the repository root::

    python3 bench/selftest.py

It checks that

1. a short untraced and a short traced run of every workload emit every
   metric that BENCHMARK.json names, with the unit and direction it lists;
2. a repeated run with the same seed reproduces every exact count and digest;
3. a ledger whose first pivot ``new`` point is nudged by 1e-3 fails the
   ``verify_ledgers`` item gate and so shows up in its error rate;
4. in a directory holding only BENCHMARK.json and the benchmark, the
   benchmark exits non-zero without printing a result.

It takes a few minutes, because each run covers its tail percentile.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run as bench  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def invoke(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_metrics(workload: str, trace: int, proc) -> list[str]:
    """Every named metric appears in the report lines and the result line."""
    if proc.returncode != 0:
        return [f"{workload} trace={trace}: exit {proc.returncode}: {proc.stderr[-500:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"} or not result["correct"]:
        return [f"{workload} trace={trace}: bad result line {lines[-1][:200]}"]
    printed = {}
    for line in lines:
        if line.startswith("metric "):
            _, name, value, unit, better = line.split()
            printed[name] = (float(value), unit, better)
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    problems = []
    if set(result["metrics"]) != {m["name"] for m in wanted}:
        problems.append(f"{workload} trace={trace}: metric names differ from BENCHMARK.json")
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            problems.append(f"{workload}: {m['name']} missing or not in {m['unit']}")
        elif printed.get(m["name"]) != (got["value"], m["unit"], m["better"]):
            problems.append(f"{workload}: {m['name']} report line disagrees: "
                            f"{printed.get(m['name'])}")
    return problems


def exact_lines(proc) -> list[str]:
    return [line for line in proc.stdout.splitlines()
            if line.startswith(("count ", "failures ", "digest "))]


def check_tamper() -> list[str]:
    """One nudged pivot point must turn one verify_ledgers item into a failure."""
    bench._load_package()
    workdir = bench.WORK / "selftest-tamper"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        workload = bench.VerifyLedgers(workdir)
        workload.size, workload.n = 2, 24
        workload.setup(5)
        clean = bench.Run(workload).one_pass()
        path = Path(workload.paths[1])
        doc = json.loads(path.read_text(encoding="utf-8"))
        pivot = next(m for m in doc["moves"] if m["type"] == "pivot")
        pivot["new"][0] += 1e-3
        path.write_text(json.dumps(doc), encoding="utf-8")
        tampered = bench.Run(workload).one_pass()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    problems = []
    if clean.passed != 2:
        problems.append("untampered ledgers did not pass")
    error_rate = 1.0 - tampered.passed / len(tampered.results)
    if error_rate != 0.5 or tampered.results[1].ok:
        problems.append(f"tampered ledger not caught: error rate {error_rate}")
    return problems


def check_bare_directory() -> list[str]:
    bare = bench.WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH, bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = invoke("moduli_certs", 1, 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    problems = []
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            proc = invoke(workload, 1, trace)
            problems += check_metrics(workload, trace, proc)
            print(f"{workload} trace={trace}: exit {proc.returncode}", flush=True)
    first, again = invoke("moduli_certs", 2, 0), invoke("moduli_certs", 2, 0)
    if again.returncode != 0 or exact_lines(first) != exact_lines(again):
        problems.append("a repeat run with the same seed changed counts or digests")
    problems += check_tamper()
    problems += check_bare_directory()
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
