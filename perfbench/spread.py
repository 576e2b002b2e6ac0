#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

For every metric it prints the median over the runs and the distance
between the first and third quartile (statistics.quantiles(n=4)) as a
share of that median, beside the metric's bound from BENCHMARK.json.
A spread above a third of the bound is flagged.

Run from the repository root:

    python3 perfbench/spread.py --workload hw_contended --seeds 1-10 --trace 0
"""

import argparse
import json
import statistics
import subprocess
import sys


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-5", help="inclusive range, e.g. 1-10")
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
        out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            sys.exit(f"seed {seed}: incorrect run: {out}")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)

    worst = True
    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and not spread < bound / 3:
            flag = "  <-- above a third of the bound"
            worst = False
        print(f"{name:28} median {med:14.6g}  spread {spread:8.4f}  bound {bound}{flag}")
    sys.exit(0 if worst else 1)


if __name__ == "__main__":
    main()
