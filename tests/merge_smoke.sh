#!/usr/bin/env bash
# Shard/merge smokes, one per sweep axis (docs/sweep.md):
#
#   tests/merge_smoke.sh <dir with the tgsim_* binaries> <source root> <scratch dir>
#
# Each ci/smoke_merge.sh call runs a campaign unsharded and as concurrent
# shard processes, merges the shards and byte-compares the merge against
# the single run; each --guard call checks that two campaigns differing in
# an identity axis refuse to merge.
# 1. Funnel tier, 3 concurrent shard processes.
# 2. Topology axis, plus the mesh/torus mixed-merge guard.
# 3. Open-loop sources, plus the open/closed mixed-merge guard.
# 4. Fault injection, plus the report's fault accounting.
#
# The scratch dir gets `build` and `ci` links, so every command reads as it
# would from the repository root. Like a CI `run:` step, the script stops
# at the first failing command (bash -e, no pipefail).
set -eu

bin=$(cd "$1" && pwd)
src=$(cd "$2" && pwd)
work=$3
rm -rf "$work"
mkdir -p "$work"
cd "$work"
ln -s "$bin" build
ln -s "$src/ci" ci

# Funnel tier, 3 concurrent shard processes.
ci/smoke_merge.sh shard 3 --pattern=transpose --grid=4x4 \
  --packets=200 --rates=0.01,0.02,0.04 --mesh=5x4,6x3 --fifo=2,4 \
  --tier=funnel --funnel-top=4
# Topology axis; topology is campaign identity, so a torus shard
# must never merge into a mesh campaign.
ci/smoke_merge.sh topo 2 --pattern=transpose --grid=4x4 \
  --packets=200 --rates=0.01,0.02 --mesh=5x4 --topology=mesh,torus
ci/smoke_merge.sh --guard mix_topo \
  "--pattern=transpose --grid=4x4 --packets=200 --rates=0.01,0.02
   --mesh=5x4 --topology=torus" \
  "--pattern=transpose --grid=4x4 --packets=200 --rates=0.01,0.02
   --mesh=5x4"
# Open-loop sources; source mode is campaign identity too.
ci/smoke_merge.sh open 2 --pattern=uniform_random --grid=4x4 \
  --mesh=5x4 --fifo=8 --rates=0.01,0.08,0.64 --packets=200 \
  --source=open
ci/smoke_merge.sh --guard mix_source \
  "--pattern=uniform_random --grid=4x4 --mesh=5x4 --fifo=8
   --rates=0.01,0.08,0.64 --packets=200 --source=open" \
  "--pattern=uniform_random --grid=4x4 --mesh=5x4 --fifo=8
   --rates=0.01,0.08,0.64 --packets=200"
# Fault injection.
ci/smoke_merge.sh fault 2 --pattern=transpose --grid=4x4 \
  --packets=200 --rates=0.01,0.02 --mesh=5x4 --fifo=4 \
  --fault-rate=0.02,0.05 --fault-seed=7
# every injected transaction must be accounted for in the report
python3 - <<'EOF'
import json
rows = json.load(open("fault_single.json"))["candidates"]
assert rows, "no fault rows"
for r in rows:
    assert r["fault_injected"] == (r["fault_delivered"] +
        r["fault_err_delivered"] + r["fault_lost"]), r["name"]
EOF

echo "merge_smoke: PASS"
