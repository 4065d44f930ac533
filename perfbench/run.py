#!/usr/bin/env python3
"""Builds the optsync service benchmark from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload kv_zipf --seed 1 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR when set, else to .bench_build, and is
incremental: only the first run in a checkout compiles. Build output goes to
stderr, so the last line of stdout is the benchmark's JSON result. Any build
failure exits nonzero without printing a result.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("kv_zipf", "txn_rmw_hot", "lease_read", "hotspot_elastic")


def build(build_dir):
    """Configures and builds the service_bench target; returns its path."""
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", build_dir, "--target", "service_bench",
         "-j", "4"],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print("error: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            sys.exit(2)
    return os.path.join(build_dir, "service_bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")

    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_dir)
    sys.stdout.flush()
    done = subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)])
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
