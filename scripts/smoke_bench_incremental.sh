#!/usr/bin/env bash
# bench_incremental_sta smoke: the bench must run, emit valid JSON with
# the expected shape, and show the incremental analyzer no slower than a
# cold re-run for the smallest dirty set on every circuit, and a
# structural (buffer-insertion) update no slower than a cold run with
# slacks (the bench itself asserts bit-identity via
# IncrementalSta::check_against_full on every configuration). Shared by
# scripts/ci.sh and the GitHub workflow.
# Usage: scripts/smoke_bench_incremental.sh <build-dir>
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:?usage: smoke_bench_incremental.sh <build-dir>}"

SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "${SMOKE_DIR}"' EXIT

"${BUILD_DIR}/bench_incremental_sta" "${SMOKE_DIR}/bench.json" > /dev/null

python3 - "${SMOKE_DIR}/bench.json" <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)  # must be valid JSON
assert doc["bench"] == "incremental_sta"
circuits = {c["circuit"]: c for c in doc["circuits"]}
assert set(circuits) == {"c432", "c880", "c1355"}, set(circuits)
for name, c in circuits.items():
    rows = {r["dirty"]: r for r in c["rows"]}
    assert 1 in rows, f"{name}: missing dirty=1 row"
    for r in c["rows"]:
        assert r["cold_round_ms"] > 0 and r["incremental_ms"] > 0, (name, r)
    one = rows[1]
    # Timing smoke, so keep the bound conservative: a single-gate resize
    # must never cost more than a full cold re-analysis.
    assert one["incremental_ms"] <= one["cold_round_ms"], (
        f"{name}: incremental dirty=1 slower than cold "
        f"({one['incremental_ms']:.3f} vs {one['cold_round_ms']:.3f} ms)")
structural = {r["circuit"]: r for r in doc["structural"]}
assert set(structural) == {"c432", "c880", "c1355"}, set(structural)
for name, r in structural.items():
    assert r["buffers"] > 0, (name, r)
    assert r["update_ms"] > 0 and r["cold_slack_ms"] > 0, (name, r)
    for counter in ("topo_rebuilds", "position_renumbers"):
        assert isinstance(r[counter], (int, float)) and r[counter] >= 0, (name, r)
    assert r["update_ms"] <= r["cold_slack_ms"], (
        f"{name}: structural update slower than cold "
        f"({r['update_ms']:.4f} vs {r['cold_slack_ms']:.4f} ms)")
print("bench_incremental_sta smoke OK:",
      ", ".join(f"{n} {circuits[n]['rows'][0]['speedup']:.1f}x@dirty=1"
                for n in ("c432", "c880", "c1355")),
      "| structural:",
      ", ".join(f"{n} {structural[n]['cold_slack_ms'] / structural[n]['update_ms']:.1f}x"
                for n in ("c432", "c880", "c1355")))
PY
