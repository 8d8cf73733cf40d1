#!/usr/bin/env python3
"""Pressure benchmark: host ms per simulated session.

    python3 perfbench/run.py --workload ariadne_daily --seed 1 \
        --seconds 25 --trace 0

Run from the repository root. Builds libariadne and the harness in a
Release tree under .bench_build/perfbench (configured once, rebuilt
incrementally), then runs one workload. Build output goes to stderr; the
harness prints the result object as the last line of stdout. See
perfbench/README.md.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("ariadne_daily", "zswap_heavy", "no_pressure")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(root):
    if not os.path.isfile(os.path.join(root, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(root, "src")):
        fail(f"{root} holds no repository sources to build")
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(root, "perfbench"), "-B",
               build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", build_dir, "--target", "perfbench_harness",
           "-j", "4"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "perfbench_harness")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    harness = build(root)
    proc = subprocess.run(
        [harness, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)])
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
