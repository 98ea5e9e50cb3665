#!/usr/bin/env python3
"""Runs one workload untraced on several seeds and prints, per end-to-end
metric, the median and the spread: the distance between the first and
third quartile of the values (statistics.quantiles(values, n=4)) as a
share of their median.

Run from the root of the checkout:

    python3 perfbench/spread.py --workload serve-mix --seeds 1-10 --seconds 20
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=20)
    args = ap.parse_args()

    values = {}
    for seed in seeds(args.seeds):
        cmd = ["bash", "perfbench/run.sh", "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", "0"]
        out = subprocess.run(cmd, capture_output=True, text=True)
        if out.returncode != 0:
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr}")
        res = json.loads(out.stdout.strip().splitlines()[-1])
        status = "ok" if res["correct"] and res["failed"] == 0 else "FAILED"
        print(f"seed {seed}: {status} attempted={res['attempted']} failed={res['failed']}", flush=True)
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    print(f"\n{'metric':34} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8}")
    for name in sorted(values):
        v = values[name]
        q1, med, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], v[0], v[0])
        spread = (q3 - q1) / med if med else 0.0
        print(f"{name:34} {med:14.4f} {q1:14.4f} {q3:14.4f} {spread:8.2%}")


if __name__ == "__main__":
    main()
