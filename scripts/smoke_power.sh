#!/usr/bin/env bash
# Power-backend smoke: sweep a built-in circuit under the state-dependent
# power model at 85 degC with the multi-Vt axis on, and assert (a) every
# record carries a power section from the requested backend at the
# requested temperature, (b) multi-vt points spend slack on high-Vt cells
# and report less leakage than their single-Vt twins, (c) a repeat run
# with --no-runtimes is BYTE-IDENTICAL (the power RNG stream is seeded by
# content, not by process), and (d) the unmet-point exit contract (exit 2)
# survives the power axes. Shared by scripts/ci.sh and the GitHub
# workflow.
# Usage: scripts/smoke_power.sh <build-dir>
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:?usage: smoke_power.sh <build-dir>}"

SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "${SMOKE_DIR}"' EXIT

"${BUILD_DIR}/pops_sweep" --tc 1.0,1.25 --power-model state --temperature 85 \
    --vt-policies none,multi-vt --no-runtimes \
    --out "${SMOKE_DIR}/run1.json" @c432
"${BUILD_DIR}/pops_sweep" --tc 1.0,1.25 --power-model state --temperature 85 \
    --vt-policies none,multi-vt --no-runtimes \
    --out "${SMOKE_DIR}/run2.json" @c432

cmp "${SMOKE_DIR}/run1.json" "${SMOKE_DIR}/run2.json" \
    || { echo "power sweep is not byte-deterministic across runs"; exit 1; }

python3 - "${SMOKE_DIR}/run1.json" <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    report = json.load(f)  # must be valid JSON
points = report["sweeps"][0]["points"]
assert len(points) == 4, len(points)
by_vt = {}
for p in points:
    power = p["report"]["power"]
    assert power["model"] == "state", power["model"]
    assert power["temperature_c"] == 85.0, power["temperature_c"]
    assert power["leakage_uw"] > 0 and power["total_uw"] > 0
    assert p["temperature_c"] == 85.0
    by_vt.setdefault(p["vt_policy"], {})[p["tc_ratio"]] = p
assert set(by_vt) == {"none", "multi-vt"}, set(by_vt)
for ratio, mvt in by_vt["multi-vt"].items():
    base = by_vt["none"][ratio]
    assert mvt["report"]["cells_high_vt"] > 0, ratio
    assert (mvt["report"]["power"]["leakage_uw"]
            < base["report"]["power"]["leakage_uw"]), ratio
    assert mvt["report"]["met"] and base["report"]["met"], ratio
print("power smoke OK:",
      ", ".join(f"tc={r}: {m['report']['cells_high_vt']} high-Vt cells"
                for r, m in sorted(by_vt["multi-vt"].items())))
PY

# Exit contract: an infeasible constraint still exits 2 under the power
# axes (and 0 with --allow-unmet). Tc = 0.2x the initial delay is far
# below what sizing and shielding reach on c432 (0.5x is within reach).
set +e
"${BUILD_DIR}/pops_sweep" --tc 0.2 --power-model state --temperature 85 \
    --out /dev/null @c432 2> /dev/null
rc=$?
set -e
[[ "${rc}" -eq 2 ]] || { echo "expected exit 2 on unmet points, got ${rc}"; exit 1; }
"${BUILD_DIR}/pops_sweep" --tc 0.2 --power-model state --temperature 85 \
    --allow-unmet --out /dev/null @c432 2> /dev/null \
    || { echo "--allow-unmet must exit 0"; exit 1; }
echo "power exit-contract OK"
