#!/usr/bin/env python3
"""Runs one workload on several seeds and reports each metric's spread.

Usage (from the root of a tilespmv checkout):

    python3 perfbench/spread.py --workload serve-burst --seeds 1-10 --seconds 20

For every metric of the result line it prints the median over the runs and
the spread: the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median. A run that
fails or prints no result is reported and ends the script with exit code 1.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()

    values = {}
    units = {}
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               args.workload, "--seed", str(seed), "--seconds",
               str(args.seconds), "--trace", str(args.trace)]
        start = time.monotonic()
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, check=False)
        elapsed = time.monotonic() - start
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"seed {seed}: exit {done.returncode}")
            print(done.stderr[-2000:])
            return 1
        result = json.loads(lines[-1])
        steal = ""
        for line in lines:
            if line.startswith("manifest "):
                steal = f"steal={json.loads(line[9:])['steal_pct']:.1f}% "
        row = []
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
            row.append(f"{name}={m['value']:.4g}")
        print(f"seed {seed}: {elapsed:.0f}s correct={result['correct']} "
              f"attempted={result['attempted']} {steal}{' '.join(row)}",
              flush=True)

    print(f"{'metric':32} {'median':>12} {'spread':>8}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [med] * 3
        spread = (q[2] - q[0]) / med if med else float("inf")
        print(f"{name:32} {med:12.5g} {spread:8.4f}  {units[name]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
