#!/usr/bin/env python3
"""Run the benchmark once per seed and report each metric's quartiles.

    python3 perfbench/spread.py --workload exact_grid --seeds 1-10 [--trace 0]

Run from the repository root. Runs the command named in BENCHMARK.json
sequentially (never in parallel, so runs do not disturb each other), then
prints, per metric, the median, the first and third quartiles as
statistics.quantiles(values, n=4) gives them, the spread (Q3 - Q1) / median,
and the metric's bound. A spread above a third of its bound is flagged.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    ap.add_argument("--seconds", type=int, help="default: run_seconds from BENCHMARK.json")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}

    values = {}
    for seed in parse_seeds(args.seeds):
        cmd = spec["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", args.trace,
        ]
        t0 = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True)
        wall = time.monotonic() - t0
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            sys.exit(f"seed {seed}: exit {proc.returncode}")
        result = json.loads(lines[-1])
        shown = " ".join(f"{k}={m['value']:.4g}" for k, m in result["metrics"].items())
        print(f"seed {seed}: {wall:.1f} s, attempted {result['attempted']}, "
              f"failed {result['failed']}, correct {result['correct']}: {shown}", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    print(f"\n{'metric':<28} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        flag = " !" if bound and spread > bound / 3 else ""
        print(f"{name:<28} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>8.4f} "
              f"{bound if bound is not None else '':>6}{flag}")


if __name__ == "__main__":
    main()
