#!/usr/bin/env bash
# Runs the `rhombidome` console script end to end: reduce and validate the
# stored crown, refuse a version 4 ledger (exit 2), reduce a far square and a
# near-axis window, reduce and validate with scipy blocked, certify catalog
# moduli surfaces and refuse a too-small band (exit 2).
#
# Usage: tests/cli_smoke.sh OUTDIR   (from any directory; `rhombidome` must
# be on PATH, and PYTHON, default `python`, must import rhombidome)
set -eux
out="$(cd "$1" && pwd)"
py="${PYTHON:-python}"
cd "$(dirname "$0")/.."

rhombidome reduce --in tests/data/curve_crown_12.json --out "$out/crown.json" --off "$out/crown.off"
rhombidome validate --in "$out/crown.json"
"$py" -c 'import json, sys; doc = json.load(open(sys.argv[1])); doc["version"] = 4; json.dump(doc, open(sys.argv[2], "w"))' "$out/crown.json" "$out/crown_v4.json"
status=0
rhombidome validate --in "$out/crown_v4.json" || status=$?
test "$status" -eq 2
"$py" -c 'import json, sys; json.dump({"version": 1, "components": [[[1e10, 0, 0], [1e10 + 1, 0, 0], [1e10 + 1, 1, 0], [1e10, 1, 0]]]}, open(sys.argv[1], "w"))' "$out/far_square.json"
rhombidome reduce --in "$out/far_square.json" --out "$out/far_square_ledger.json"
rhombidome validate --in "$out/far_square_ledger.json"
rhombidome reduce --in tests/data/curve_near_axis_7.json --out "$out/near_axis_ledger.json"
rhombidome validate --in "$out/near_axis_ledger.json"
# a None entry in sys.modules makes any scipy import raise: reduce and validate need numpy alone
"$py" -c 'import sys; sys.modules["scipy"] = None; from rhombidome.cli import main; sys.exit(main(sys.argv[1:]))' reduce --in tests/data/curve_crown_12.json --out "$out/crown_no_scipy.json"
"$py" -c 'import sys; sys.modules["scipy"] = None; from rhombidome.cli import main; sys.exit(main(sys.argv[1:]))' validate --in "$out/crown_no_scipy.json"

rhombidome moduli dims --surface antiprism_band:k=4
rhombidome moduli isotropy --surface antiprism_band:k=40 --trials 3 --seed 1
rhombidome moduli rank --surface three_rhombus_pants
status=0
rhombidome moduli isotropy --surface antiprism_band:k=2 || status=$?
test "$status" -eq 2
