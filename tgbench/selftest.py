#!/usr/bin/env python3
"""Tiny-size self-test of the tgsim benchmark.

Run from the repository root:

    python3 tgbench/selftest.py

For every workload in BENCHMARK.json it runs tgbench/run.py at --size tiny,
untraced and traced, and checks the result line: exactly the result keys,
zero failed operations, and every end-to-end (untraced) or per-layer
(traced) metric present with its declared unit. It then injects a cycle
mismatch into the verified references and checks that it shows up as
failed operations, and that a bad workload name exits nonzero without a
result. Exits nonzero on the first violated expectation.
"""
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def bench(*args):
    """Runs the benchmark; returns (exit code, parsed last line or None)."""
    done = subprocess.run([sys.executable, RUN] + list(args), cwd=ROOT,
                          stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return done.returncode, result


def expect(cond, what):
    if not cond:
        sys.exit("selftest FAILED: " + what)


def check_result(result, metrics, what):
    expect(result is not None, what + ": no JSON result line")
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           what + ": wrong result keys " + str(sorted(result)))
    expect(result["correct"] is True and result["failed"] == 0,
           what + ": operations failed: " + json.dumps(result))
    expect(isinstance(result["attempted"], int) and result["attempted"] >= 1,
           what + ": no operations attempted")
    got = result["metrics"]
    expect(set(got) == {m["name"] for m in metrics},
           what + ": metric names differ: " + str(sorted(got)))
    for m in metrics:
        v = got[m["name"]]
        expect(v.get("unit") == m["unit"],
               what + ": " + m["name"] + " has unit " + str(v.get("unit")))
        expect(isinstance(v.get("value"), (int, float)) and
               math.isfinite(v["value"]),
               what + ": " + m["name"] + " is not a number")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    tiny = ["--seed", "7", "--seconds", "0.1", "--size", "tiny"]
    for w in spec["workloads"]:
        name = w["name"]
        code, result = bench("--workload", name, "--trace", "0", *tiny)
        expect(code == 0, name + ": exit code " + str(code))
        check_result(result, spec["end_to_end"], name + " untraced")
        for m in spec["end_to_end"]:
            expect(result["metrics"][m["name"]]["value"] > 0,
                   name + ": end-to-end metric " + m["name"] + " is not > 0")
        code, result = bench("--workload", name, "--trace", "1", *tiny)
        expect(code == 0, name + " traced: exit code " + str(code))
        check_result(result, spec["per_layer"], name + " traced")
        print("ok  " + name)

    code, result = bench("--workload", spec["workloads"][0]["name"],
                         "--trace", "0", "--inject-mismatch", *tiny)
    expect(code == 0 and result is not None, "injected run gave no result")
    expect(result["correct"] is False and result["failed"] > 0,
           "injected cycle mismatch not counted: " + json.dumps(result))
    print("ok  injected mismatch: %d of %d operations failed"
          % (result["failed"], result["attempted"]))

    code, result = bench("--workload", "no_such_workload", "--trace", "0",
                         *tiny)
    expect(code != 0 and result is None, "bad workload name was accepted")
    print("ok  bad workload rejected")
    print("selftest passed")


if __name__ == "__main__":
    main()
