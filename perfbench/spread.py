#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics over several seeds.

    python3 perfbench/spread.py --workload no_pressure --seeds 1-10 \
        --seconds 25 [--trace 0]

Runs perfbench/run.py once per seed, one run at a time, and prints for
every metric its median, first and third quartile
(statistics.quantiles(values, n=4)) and the quartile distance as a
share of the median. This is how the bounds in BENCHMARK.json were
checked: each end-to-end metric's spread must stay well inside its
bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args()

    run_py = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "run.py")
    values = {}
    units = {}
    failed_shares = set()
    for seed in args.seeds:
        out = subprocess.run(
            [sys.executable, run_py, "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: outputs incorrect")
        failed_shares.add(result["failed"] / result["attempted"])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {seed}: " + ", ".join(
            f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()),
            file=sys.stderr)

    print(f"{args.workload}: {len(args.seeds)} runs of {args.seconds} s, "
          f"failed share(s) {sorted(failed_shares)}")
    print(f"{'metric':32} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'iqr/med':>8}")
    for name, v in values.items():
        q1, med, q3 = statistics.quantiles(v, n=4)
        share = (q3 - q1) / med if med else 0.0
        print(f"{name:32} {med:14.6g} {q1:14.6g} {q3:14.6g} "
              f"{share:8.2%}  {units[name]}")


if __name__ == "__main__":
    main()
