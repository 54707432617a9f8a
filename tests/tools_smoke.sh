#!/usr/bin/env bash
# End-to-end smoke of the eight tgsim tools (docs/cli.md):
#
#   tests/tools_smoke.sh <dir with the tgsim_* binaries> <scratch dir>
#
# 1. The paper's flow on des with 3 cores: tgsim_run traces the reference
#    run, tgsim_translate turns the traces into .tgp programs, tgsim_tgasm
#    assembles them and tgsim_tgdis disassembles the images; re-assembling
#    the disassembly must give a byte-identical image, and tgsim_replay
#    must pass the benchmark's own result checks.
# 2. The shared CLI contract, for every tool: --help exits 0; an unknown
#    or a repeated flag exits 1 before any work; a malformed input file
#    exits 1 (tgsim_merge: 2) with a diagnostic, never an abort.
set -euo pipefail

bin=$(cd "$1" && pwd)
work=$2
rm -rf "$work"
mkdir -p "$work"
cd "$work"

fail() {
  echo "FAIL: $*" >&2
  exit 1
}

# expect CODE TOOL ARGS...: runs the tool and checks its exit status, that
# it did not abort, and that a failure came with a diagnostic.
expect() {
  local want=$1 tool=$2 status=0
  shift 2
  "$bin/$tool" "$@" >out.txt 2>err.txt || status=$?
  [ "$status" -eq "$want" ] ||
    fail "$tool $* exited $status, want $want: $(cat err.txt)"
  if grep -q "terminate called" err.txt; then fail "$tool $* aborted"; fi
  if [ "$want" -ne 0 ] && [ ! -s err.txt ]; then
    fail "$tool $* failed without a diagnostic"
  fi
}

# rejects TOOL ARGS...: exits 1 before any work, so nothing on stdout.
rejects() {
  expect 1 "$@"
  [ ! -s out.txt ] || fail "$* wrote to stdout before failing"
}

# --- the trace -> translate -> assemble -> replay pipeline ---
mkdir trc tgp
"$bin/tgsim_run" --app=des --cores=3 --trace-dir=trc >run.txt
grep -q "checks: PASS" run.txt || fail "tgsim_run: $(cat run.txt)"
"$bin/tgsim_translate" trc/core0.trc trc/core1.trc trc/core2.trc \
  --app=des --cores=3 --out-dir=tgp >/dev/null
for k in 0 1 2; do
  "$bin/tgsim_tgasm" "tgp/core$k.tgp" >/dev/null
  "$bin/tgsim_tgdis" "tgp/core$k.bin" --out="dis$k.tgp" >/dev/null
  "$bin/tgsim_tgasm" "dis$k.tgp" >/dev/null
  cmp "tgp/core$k.bin" "dis$k.bin" || fail "core$k image does not round-trip"
done
"$bin/tgsim_replay" tgp/core0.tgp tgp/core1.tgp tgp/core2.tgp --app=des \
  >replay.txt
grep -q "checks: PASS" replay.txt || fail "tgsim_replay: $(cat replay.txt)"

# --- malformed inputs ---
printf 'MASTER[0,0]\nBEGIN\n  Bogus(r1)\nEND\n' >bad.tgp
printf 'EVT BRD 0x0 burst=4 assert=x\n' >bad.trc
# A BurstRead word then the first word of a two-word SetRegister.
head -c 8 tgp/core0.bin >bad.bin
printf 'nodes 3\nedge 0 7\n' >bad.graph
printf '{"meta": ' >bad.json

tools="tgsim_run tgsim_translate tgsim_tgasm tgsim_tgdis tgsim_replay
       tgsim_sweep tgsim_patterns tgsim_merge"
for tool in $tools; do
  expect 0 "$tool" --help
  grep -q "^usage: $tool" out.txt || fail "$tool --help prints no usage"
  rejects "$tool" --no-such-flag
done

rejects tgsim_run --app=des --cores=3 --cores=3
rejects tgsim_translate trc/core0.trc --mode=clone --mode=clone
rejects tgsim_tgasm tgp/core0.tgp --print --print
rejects tgsim_tgdis tgp/core0.bin --out=a.tgp --out=b.tgp
rejects tgsim_replay tgp/core0.tgp --ic=amba --ic=xpipes
rejects tgsim_sweep --pattern=transpose --jobs=1 --jobs=2
rejects tgsim_patterns --packets=10 --packets=10
rejects tgsim_merge --json=a.json --json=b.json bad.json

expect 1 tgsim_run --app=des --cores=3 --trace-dir=no/such/dir
rejects tgsim_translate bad.trc
rejects tgsim_tgasm bad.tgp
rejects tgsim_tgdis bad.bin
rejects tgsim_replay bad.tgp
rejects tgsim_sweep --pattern=transpose --topology=file:bad.graph
rejects tgsim_patterns --topology=file:bad.graph
expect 2 tgsim_merge bad.json
rejects tgsim_tgasm no-such-file.tgp
echo "tools smoke: PASS"
