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
"""

import hashlib
from pathlib import Path

import pytest

from rhombidome import files
from rhombidome.cobordism import reduce_to_rhombi

DATA = Path(__file__).resolve().parent / "data"

# sha256 of the version 5 ledger document ``reduce`` writes for each curve
GOLDEN = {
    "random_24": "3e5a271c5fd15fcb8a393f93dfec42f3aad246b277de1186bfd1fe8f0b4f518b",
    "crown_12": "a770cc532a66b0389b4e4e4ffdd897361e4e7df70cd81ae290fee55832502bb5",
    "cubic_walk_18": "9838d475bbf89278d391b4cf060ecc5612db6f6c895f2c9cd8c57b28c1b29165",
    "crown_union_3": "e6778e23c835b0199e772b55b2944e3bc961b16c247b220cbac2acf4afc960cc",
    "near_axis_7": "9c28c1194e2aba3e8e942c9622405c88ae0755ecb8afecbc81a7171ec8c72c9f",
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_ledger_bytes_match_golden(name):
    curve = files.read_curve(str(DATA / f"curve_{name}.json"))
    obj = files.ledger_to_obj(reduce_to_rhombi(curve))
    assert obj["version"] == 5
    text = files.dump_json(obj)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == GOLDEN[name]
