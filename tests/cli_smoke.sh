#!/usr/bin/env bash
# Runs the `rhombidome` console script end to end: reduce and validate the
# stored crown, re-encode its ledger through the generic JSON encoder to the
# same bytes, refuse a version 4 ledger and one with a move of unknown
# type `seam` (exit 2), fail a ledger with one pentagon apex moved by 1e-3
# (exit 1), reduce a far square and a near-axis window, reduce and validate
# with scipy blocked, check that the two crown ledgers, written by separate
# processes, are the same bytes, certify catalog moduli surfaces and refuse a
# too-small band (exit 2).
#
# Usage: tests/cli_smoke.sh OUTDIR   (from any directory; `rhombidome` must
# be on PATH, and PYTHON, default `python`, must import rhombidome)
set -eux
out="$(cd "$1" && pwd)"
py="${PYTHON:-python}"
cd "$(dirname "$0")/.."

rhombidome reduce --in tests/data/curve_crown_12.json --out "$out/crown.json" --off "$out/crown.off"
rhombidome validate --in "$out/crown.json"
# the generic encoder, in another process, writes the crown's pivots and pack
# to the bytes of reduce's text encoders
"$py" -c 'import sys; from rhombidome import files; open(sys.argv[2], "w").write(files.dump_json(files.ledger_to_obj(files.read_ledger(sys.argv[1]))))' "$out/crown.json" "$out/crown_generic.json"
cmp "$out/crown.json" "$out/crown_generic.json"
"$py" -c 'import json, sys; doc = json.load(open(sys.argv[1])); doc["version"] = 4; json.dump(doc, open(sys.argv[2], "w"))' "$out/crown.json" "$out/crown_v4.json"
status=0
rhombidome validate --in "$out/crown_v4.json" || status=$?
test "$status" -eq 2
"$py" -c 'import json, sys; doc = json.load(open(sys.argv[1])); doc["moves"][0]["type"] = "seam"; json.dump(doc, open(sys.argv[2], "w"))' "$out/crown.json" "$out/crown_seam.json"
status=0
rhombidome validate --in "$out/crown_seam.json" || status=$?
test "$status" -eq 2
"$py" -c 'import json, sys; doc = json.load(open(sys.argv[1])); next(m for m in doc["moves"] if m["type"] == "pentagon")["apex"][0] += 1e-3; json.dump(doc, open(sys.argv[2], "w"))' "$out/crown.json" "$out/crown_apex.json"
status=0
rhombidome validate --in "$out/crown_apex.json" > "$out/crown_apex_report.json" || status=$?
test "$status" -eq 1
grep -q '"detail": "pentagon apex at distance' "$out/crown_apex_report.json"
"$py" -c 'import json, sys; json.dump({"version": 1, "components": [[[1e10, 0, 0], [1e10 + 1, 0, 0], [1e10 + 1, 1, 0], [1e10, 1, 0]]]}, open(sys.argv[1], "w"))' "$out/far_square.json"
rhombidome reduce --in "$out/far_square.json" --out "$out/far_square_ledger.json"
rhombidome validate --in "$out/far_square_ledger.json"
rhombidome reduce --in tests/data/curve_near_axis_7.json --out "$out/near_axis_ledger.json"
rhombidome validate --in "$out/near_axis_ledger.json"
# a None entry in sys.modules makes any scipy import raise: reduce and validate need numpy alone
"$py" -c 'import sys; sys.modules["scipy"] = None; from rhombidome.cli import main; sys.exit(main(sys.argv[1:]))' reduce --in tests/data/curve_crown_12.json --out "$out/crown_no_scipy.json"
"$py" -c 'import sys; sys.modules["scipy"] = None; from rhombidome.cli import main; sys.exit(main(sys.argv[1:]))' validate --in "$out/crown_no_scipy.json"
cmp "$out/crown.json" "$out/crown_no_scipy.json"

rhombidome moduli dims --surface antiprism_band:k=4
rhombidome moduli isotropy --surface antiprism_band:k=40 --trials 3 --seed 1
rhombidome moduli rank --surface three_rhombus_pants
status=0
rhombidome moduli isotropy --surface antiprism_band:k=2 || status=$?
test "$status" -eq 2
