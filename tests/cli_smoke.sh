#!/usr/bin/env bash
# CLI smokes of the pattern and sweep tools:
#
#   tests/cli_smoke.sh <dir with the tgsim_* binaries> <source root> <scratch dir>
#
# 1. Pattern: a saturation sweep over 4 workers writes its report.
# 2. Funnel: a two-phase (analytic screen, cycle survivors) sweep.
# 3. Topology: torus and table-routed graph fabrics end to end.
# 4. Open loop: an open-loop ladder saturates the network (hockey stick).
# 5. Checkpoint/resume: a torn journal resumes to the identical report,
#    and reusing a journal without --resume is refused.
#
# The scratch dir gets `build` and `examples` links, so every command reads
# as it would from the repository root. Like a CI `run:` step, the script
# stops at the first failing command (bash -e, no pipefail).
set -eu

bin=$(cd "$1" && pwd)
src=$(cd "$2" && pwd)
work=$3
rm -rf "$work"
mkdir -p "$work"
cd "$work"
ln -s "$bin" build
ln -s "$src/examples" examples

# --- 1. Pattern CLI smoke (saturation sweep, 4 workers) ---
./build/tgsim_patterns --pattern=transpose --mesh=4x4 \
  --packets=400 --jobs=4 --json=patterns_smoke.json
test -s patterns_smoke.json

# --- 2. Funnel CLI smoke (two-phase sweep, 4 workers) ---
./build/tgsim_sweep --pattern=tornado --grid=4x4 --packets=400 \
  --tier=funnel --funnel-top=4 --jobs=4 --mesh=auto,5x4 \
  --fifo=2,4 --json=funnel_smoke.json
test -s funnel_smoke.json

# --- 3. Topology CLI smoke (torus + table fabrics) ---
# Torus and table-routed fabrics run the pattern tools end to end.
./build/tgsim_patterns --pattern=tornado --mesh=4x4 \
  --topology=torus --packets=200 --jobs=4 --json=torus_smoke.json
test -s torus_smoke.json
./build/tgsim_patterns --pattern=transpose --mesh=4x4 \
  --topology=file:examples/graphs/ring18.graph \
  --rates=0.01,0.02,0.04 --packets=200 --jobs=4 \
  --json=graph_smoke.json
test -s graph_smoke.json

# --- 4. Open-loop CLI smoke (hockey stick) ---
# An open-loop ladder saturates the NETWORK: post-knee in-network
# p50 must sit well above the zero-load p50 (docs/traffic.md).
./build/tgsim_patterns --pattern=uniform_random --mesh=4x4 \
  --source=open --fifo=8 --rates=0.01,0.08,0.64,1.0 \
  --packets=200 --jobs=4 --json=open_smoke.json
python3 - <<'EOF'
import json
rows = json.load(open("open_smoke.json"))["candidates"]
assert all("pending_limit" in r for r in rows), "missing open block"
zero, knee = rows[0], rows[-1]
ratio = knee["net_lat_p50"] / max(1, zero["net_lat_p50"])
assert ratio >= 3.0, f"no hockey stick: p50 ratio {ratio:.2f}"
assert knee["sq_lat_mean"] > zero["sq_lat_mean"], "pending queue flat"
EOF

# --- 5. Checkpoint/resume smoke (kill simulated by journal truncation) ---
common="--pattern=transpose --grid=4x4 --packets=200 \
  --rates=0.01,0.02,0.04 --mesh=5x4,6x3 --fifo=2,4 --jobs=4 \
  --deterministic"
./build/tgsim_sweep $common --checkpoint=ck.jsonl \
  --json=ck_full.json
# a torn final line plus lost rows, as a mid-write kill leaves them
{ head -n 6 ck.jsonl; tail -n +7 ck.jsonl | head -c 40; } \
  > ck_cut.jsonl
./build/tgsim_sweep $common --checkpoint=ck_cut.jsonl --resume \
  --json=ck_resumed.json
cmp ck_full.json ck_resumed.json
# reusing a journal without --resume must refuse, not overwrite
if ./build/tgsim_sweep $common --checkpoint=ck.jsonl \
  --json=ck_overwrite.json; then
  echo "checkpoint overwrite guard failed" >&2; exit 1
fi

echo "cli_smoke: PASS"
