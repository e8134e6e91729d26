"""Moduli CLI verdicts, pinned by a committed fixture.

Every catalog surface, plus the benchmark's ``antiprism_band:k=16``, is run
through ``rhombidome moduli dims``, ``isotropy --trials 2`` and ``rank`` at
seeds 0-2.  The fixture keeps only the integers and booleans of each report
(exit code, verdict, tangent dimensions, ranks, rhombus moduli dimension), so
rounding-level drift in the reported floats cannot break it, while any
change of verdict or dimension does.

Regenerate with ``PYTHONPATH=src python tests/test_moduli_verdicts.py``.
"""

import contextlib
import io
import json
from pathlib import Path

from rhombidome.cli import main

FIXTURE = Path(__file__).resolve().parent / "data" / "moduli_verdicts.json"
SURFACES = ["triangle_disk", "antiprism_band", "pentagon_pants",
            "three_rhombus_pants", "antiprism_band:k=16"]
COMMANDS = {"dims": [], "isotropy": ["--trials", "2"], "rank": []}
SEEDS = [0, 1, 2]
_KEPT = ("passed", "tangent_dim", "tangent_dims", "rhombus_moduli_dim")


def verdict(what: str, spec: str, seed: int) -> dict:
    """Exit code and the integer fields of one moduli CLI report."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(["moduli", what, "--surface", spec, "--seed", str(seed),
                     *COMMANDS[what]])
    entry = {"exit": code}
    if out.getvalue():
        report = json.loads(out.getvalue())
        entry.update({key: report[key] for key in _KEPT if key in report})
        for key in ("rank_moduli", "rank_projected"):
            if key in report:
                entry[key] = report[key]["rank"]
    return entry


def all_verdicts() -> dict:
    return {f"{what} {spec} seed={seed}": verdict(what, spec, seed)
            for spec in SURFACES for what in COMMANDS for seed in SEEDS}


def test_moduli_verdicts_match_fixture():
    assert all_verdicts() == json.loads(FIXTURE.read_text())


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(all_verdicts(), indent=1, sort_keys=True) + "\n")
