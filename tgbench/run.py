#!/usr/bin/env python3
"""Build and run the tgsim benchmark.

Run from the repository root:

    python3 tgbench/run.py --workload replay --seed 1 --seconds 10 --trace 0

The first call configures and builds tgbench (and the tgsim library it
links) into the build directory: $CARGO_TARGET_DIR when set, otherwise
.bench_build. Later calls only rebuild what changed. All arguments are
passed to the benchmark binary; its last line of output is the JSON result.
Build output goes to stderr so stdout carries only the benchmark's output.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(bdir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "--target", "tgbench",
                  "--parallel", "4"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("tgbench: build step failed: " + " ".join(cmd))
    return os.path.join(bdir, "tgbench")


def main():
    binary = build(build_dir())
    sys.stdout.flush()
    done = subprocess.run([binary] + sys.argv[1:])
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
