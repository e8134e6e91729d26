"""Golden ledgers: the reduction writes the same bytes for fixed curves.

Each curve is stored as a file rather than rebuilt from a seed, because
``random_integral_curve`` and ``crown_curve`` go through numpy's ``cos`` and
``sin``, whose last bits may vary with the CPU.  The four cover a reduction
that only peels locally (a random n = 24 curve), the whole fallback with
planarize, pack and fix pivots (the crown), degenerate pivots (a cubic
out-and-back walk: a planarize pivot whose neighbours coincide, a pack swap
of equal edges and a half-turn fix) and a union of both (the crown union).
"""

import hashlib
from pathlib import Path

import pytest

from rhombidome import files
from rhombidome.cobordism import reduce_to_rhombi

DATA = Path(__file__).resolve().parent / "data"

# sha256 of the version 5 ledger document ``reduce`` writes for each curve
GOLDEN = {
    "random_24": "1831ea261941b3373a3fe5af004a1322eea34cd28facc99a82e0806ac32c032b",
    "crown_12": "d8d6647dc17c82a6a02f9d3aaf1eec6c85cc2c8628d6dce2c1d533f8e5447d9c",
    "cubic_walk_18": "f86d25f99660566a7e8771fd50719fc2bb1fe6a18aa43e0ef15e37d408c68324",
    "crown_union_3": "22d8c0bf74460a60c450211dc9ea5a569a6f46328007d7d954f067e1323c456d",
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_ledger_bytes_match_golden(name):
    curve = files.read_curve(str(DATA / f"curve_{name}.json"))
    obj = files.ledger_to_obj(reduce_to_rhombi(curve))
    assert obj["version"] == 5
    text = files.dump_json(obj)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == GOLDEN[name]
