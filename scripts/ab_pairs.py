#!/usr/bin/env python3
"""Run the benchmark in alternating parent/change pairs and judge a gain.

Both DIRs are checkouts of this repository (for example made with
`git archive`). The script builds the benchmark in each, then runs
BENCHMARK.json's command in each checkout once per pair, alternating
which side runs first. A run that is not `correct` or has `failed > 0`
stops the script. For every end-to-end metric it prints each side's
median and quartiles, the change's wins over the pairs (ties count for
neither), whether the change's median is worse than the parent's by
more than the metric's bound, and whether the gain rule holds: the
change wins at least nine tenths of the pairs and the medians differ by
more than the parent's interquartile spread. Beside the table it prints
each side's median raw batch wall and median reference-loop time, the
numerator and denominator of `batch_time_ref`, so a move in that ratio
can be traced to the job or to the reference loop.

    python3 scripts/ab_pairs.py --parent ../parent --change . \\
        --workload hw_contended --pairs 10 --seconds 30 --seed 7
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

SIDES = ("parent", "change")
# perfbench's raw readings behind `batch_time_ref`.
RAW = re.compile(r"median batch wall ([0-9.]+) s; median reference loop ([0-9.]+) s")
RAW_NAMES = ("batch wall s", "reference loop s")


def load_spec(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def build(spec, cwd):
    """Build what the benchmark command runs, so no run times a compile."""
    cmd = list(spec["command"])
    cmd = cmd[: cmd.index("--")] if "--" in cmd else cmd
    if len(cmd) > 1 and cmd[0] == "cargo" and cmd[1] == "run":
        subprocess.run(["cargo", "build"] + cmd[2:], cwd=cwd, check=True)


def run_once(spec, cwd, args):
    cmd = spec["command"] + [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{cwd}: benchmark exited {proc.returncode}\n{proc.stdout}{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] > 0:
        sys.exit(f"{cwd}: rejected run (correct={result['correct']}, failed={result['failed']})\n{proc.stdout}")
    raw = RAW.search(proc.stdout)
    if not raw:
        sys.exit(f"{cwd}: no `median batch wall ... median reference loop ...` line\n{proc.stdout}")
    values = {name: m["value"] for name, m in result["metrics"].items()}
    values.update(zip(RAW_NAMES, map(float, raw.groups())))
    return values


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    dirs = {"parent": args.parent, "change": args.change}
    spec = load_spec(args.parent)
    if load_spec(args.change)["command"] != spec["command"]:
        sys.exit("the two checkouts run different benchmark commands")
    args.seconds = args.seconds or spec["run_seconds"]
    metrics = spec["end_to_end"]

    for side in SIDES:
        build(spec, dirs[side])

    runs = {side: [] for side in SIDES}
    for i in range(args.pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for side in order:
            runs[side].append(run_once(spec, dirs[side], args))
        print(f"pair {i + 1} ({order[0]} first): " + "  ".join(
            f"{name} {runs['parent'][-1][name]:.6g} -> {runs['change'][-1][name]:.6g}"
            for name in [m["name"] for m in metrics] + list(RAW_NAMES)), flush=True)

    print(f"\n{args.workload}, seed {args.seed}, {args.pairs} pairs of {args.seconds:g} s runs")
    print(f"{'metric':24} {'parent median [q1-q3]':>32} {'change median [q1-q3]':>32} "
          f"{'wins':>6} {'vs parent':>10}  verdict")
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        p = [r[name] for r in runs["parent"]]
        c = [r[name] for r in runs["change"]]
        wins = sum((cv < pv) if lower else (cv > pv) for pv, cv in zip(p, c))
        pm, cm = statistics.median(p), statistics.median(c)
        (p1, p3), (c1, c3) = quartiles(p), quartiles(c)
        rel = (cm - pm) / pm if pm else 0.0
        worse = rel if lower else -rel
        gain = wins >= 0.9 * args.pairs and (pm - cm if lower else cm - pm) > p3 - p1
        verdict = "gain" if gain else "no gain"
        if worse > m["bound"]:
            verdict += f", WORSE than bound {m['bound']}"
        ps, cs = f"{pm:.6g} [{p1:.6g}-{p3:.6g}]", f"{cm:.6g} [{c1:.6g}-{c3:.6g}]"
        print(f"{name:24} {ps:>32} {cs:>32} {wins:3}/{args.pairs:<2} {rel:+10.2%}  {verdict}")
    print("\nraw readings behind batch_time_ref (median of the runs' medians):")
    for name in RAW_NAMES:
        p = statistics.median(r[name] for r in runs["parent"])
        c = statistics.median(r[name] for r in runs["change"])
        print(f"{name:24} {p:>32.6g} {c:>32.6g} {'':6} {(c - p) / p:+10.2%}")


if __name__ == "__main__":
    main()
