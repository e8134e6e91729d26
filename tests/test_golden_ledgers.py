"""Golden ledgers: the reduction writes the same bytes for fixed curves.

Each curve is stored as a file rather than rebuilt from a seed, because
``random_integral_curve`` and ``crown_curve`` go through numpy's ``cos`` and
``sin``, whose last bits may vary with the CPU.  The five cover a reduction
that only peels locally (a random n = 24 curve), the whole fallback with
planarize, pack and fix pivots (the crown), a degenerate pivot (a cubic
out-and-back walk, peeled locally, whose half-turn fix records a fold), a
union of the crown and a loop (the crown union), and a window whose bridge
direction lies 3e-9 off its axis (``conftest.near_axis_seven_gon(3e-9)``
turned by the first of ``Rotation.random(20, random_state=3)``).

The two crowns take the fallback, whose plane and heights must not depend
on the BLAS or LAPACK kernel: numpy's OpenBLAS picks one per CPU, and
``OPENBLAS_CORETYPE`` overrides that pick for one process.  The census CSV
is pinned here too, so that CI's run of this file under another kernel
gates its bytes.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rhombidome
from rhombidome import files
from rhombidome.cli import main
from rhombidome.cobordism import reduce_to_rhombi

DATA = Path(__file__).resolve().parent / "data"

# sha256 of the version 5 ledger document ``reduce`` writes for each curve
GOLDEN = {
    "random_24": "3e5a271c5fd15fcb8a393f93dfec42f3aad246b277de1186bfd1fe8f0b4f518b",
    "crown_12": "486f7b9adfb2c022c04d4eeca5c0886acd55f0eb0127ad53210e7b9bb547b8d2",
    "cubic_walk_18": "9838d475bbf89278d391b4cf060ecc5612db6f6c895f2c9cd8c57b28c1b29165",
    "crown_union_3": "3f594a5fca08f077fecdc8a28bf407ada0b457dcbc77271abeb60a2055007e18",
    "near_axis_7": "9c28c1194e2aba3e8e942c9622405c88ae0755ecb8afecbc81a7171ec8c72c9f",
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_ledger_bytes_match_golden(name):
    curve = files.read_curve(str(DATA / f"curve_{name}.json"))
    obj = files.ledger_to_obj(reduce_to_rhombi(curve))
    assert obj["version"] == 5
    text = files.dump_json(obj)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == GOLDEN[name]


def _ledger_text(path: str) -> str:
    return files.dump_json(files.ledger_to_obj(reduce_to_rhombi(files.read_curve(path))))


_CHILD = """
import sys
from rhombidome import files
from rhombidome.cobordism import reduce_to_rhombi
for path in sys.argv[1:]:
    sys.stdout.write(files.dump_json(files.ledger_to_obj(reduce_to_rhombi(files.read_curve(path)))))
"""


@pytest.mark.parametrize("kernel", ["Prescott", "Sandybridge"])
def test_fallback_ledgers_do_not_depend_on_the_blas_kernel(kernel):
    # one child process per kernel; the variable is set on the child alone
    paths = [str(DATA / f"curve_{name}.json") for name in ("crown_12", "crown_union_3")]
    src = str(Path(rhombidome.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_CORETYPE": kernel, "PYTHONPATH": src}
    child = subprocess.run([sys.executable, "-c", _CHILD, *paths], env=env,
                           capture_output=True, check=True)
    assert child.stdout == "".join(map(_ledger_text, paths)).encode("utf-8")


# sha256 of the CSV ``census --n-min 5 --n-max 80 --samples 3 --seed 0``
# writes, the stats of 228 reductions.  Its curves are drawn from seeds, so
# the digest also pins numpy's ``cos`` and ``sin``.
GOLDEN_CENSUS = "374abeb9df3caf09081e804a8a5a79dc0869726841874d47643dc4aee5b1823f"


def test_census_bytes_match_golden(tmp_path, capsys):
    out = tmp_path / "census.csv"
    assert main(["census", "--n-min", "5", "--n-max", "80", "--samples", "3",
                 "--seed", "0", "--csv", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_CENSUS
