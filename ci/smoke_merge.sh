#!/usr/bin/env bash
# Shard -> merge -> byte-compare smoke for one sweep axis (docs/sweep.md).
#
#   ci/smoke_merge.sh <label> <shards> <tgsim_sweep flags...>
#       Runs the campaign once unsharded with --deterministic, then as
#       <shards> concurrent shard processes, merges the shard reports with
#       tgsim_merge and byte-compares the merge against the single run.
#       Leaves <label>_single.json for further checks.
#   ci/smoke_merge.sh --guard <label> "<flags A>" "<flags B>"
#       Shard 0/2 of campaign A and shard 1/2 of campaign B must refuse to
#       merge with exit 1: whatever differs between A and B is campaign
#       identity.
#
# Run from the repository root after building into build/.
set -euo pipefail

bin=./build

if [ "${1:-}" = "--guard" ]; then
  label=$2
  # Word splitting of the flag strings is intended.
  # shellcheck disable=SC2086
  $bin/tgsim_sweep $3 --shard=0/2 --json="${label}_a.json"
  # shellcheck disable=SC2086
  $bin/tgsim_sweep $4 --shard=1/2 --json="${label}_b.json"
  status=0
  $bin/tgsim_merge --json="${label}_bad.json" \
    "${label}_a.json" "${label}_b.json" || status=$?
  if [ "$status" -ne 1 ] || [ -e "${label}_bad.json" ]; then
    echo "$label: mixed merge exited $status, want 1 and no output" >&2
    exit 1
  fi
  exit 0
fi

label=$1
shards=$2
shift 2

$bin/tgsim_sweep "$@" --jobs=4 --deterministic --json="${label}_single.json"
pids=()
inputs=()
for ((k = 0; k < shards; k++)); do
  $bin/tgsim_sweep "$@" --jobs=2 --shard="$k/$shards" \
    --json="${label}_s$k.json" &
  pids+=("$!")
  inputs+=("${label}_s$k.json")
done
for p in "${pids[@]}"; do wait "$p"; done

# A mistyped flag is a usage error, not a merge to stdout.
status=0
$bin/tgsim_merge --jsn="${label}_typo.json" "${inputs[@]}" >/dev/null ||
  status=$?
if [ "$status" -ne 1 ] || [ -e "${label}_typo.json" ]; then
  echo "$label: tgsim_merge --jsn exited $status, want 1" >&2
  exit 1
fi

$bin/tgsim_merge --json="${label}_merged.json" "${inputs[@]}"
cmp "${label}_single.json" "${label}_merged.json"
