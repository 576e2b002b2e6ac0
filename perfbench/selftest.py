#!/usr/bin/env python3
"""Small-scale self-test of the benchmark.

Runs every workload at `--scale smoke` and checks that:
- BENCHMARK.json round-trips through json and keeps to its schema;
- the last output line is one JSON object with exactly the keys
  correct, attempted, failed and metrics, and the run is correct;
- every metric BENCHMARK.json names for the mode (end_to_end with
  --trace 0, per_layer with --trace 1) is reported, with its unit, and
  printed exactly once in the human-readable table; nothing else is;
- the seed is honoured: the same seed gives identical simulated metrics,
  and another seed still validates;
- bad arguments exit with code 2 and print no result.

Run from the repository root:

    python3 perfbench/selftest.py
"""

import json
import re
import subprocess
import sys

SIMULATED = ("sim_makespan_mcycles", "mgmt_cycles_pct")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check(cond, msg):
    if not cond:
        sys.exit(f"selftest: FAIL: {msg}")


def check_spec(text):
    spec = json.loads(text)
    check(json.dumps(spec, indent=2) + "\n" == text, "BENCHMARK.json does not round-trip")
    check(set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                        "per_layer"}, f"top-level keys {sorted(spec)}")
    names = []
    for w in spec["workloads"]:
        check(set(w) == {"name", "why"} and len(w["why"]) <= 200, f"workload {w}")
        names.append(w["name"])
    for m in spec["end_to_end"]:
        check(set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25,
              f"end_to_end metric {m}")
    for m in spec["per_layer"]:
        check(set(m) == {"name", "unit", "better"}, f"per_layer metric {m}")
    for m in spec["end_to_end"] + spec["per_layer"]:
        check(NAME.match(m["name"]) and UNIT.match(m["unit"]), f"metric {m}")
        check(m["better"] in ("higher", "lower"), f"metric {m}")
        names.append(m["name"])
    check(len(names) == len(set(names)), "a name is used twice")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    check(setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower",
          "setup_s must be an end_to_end metric in s, lower is better")
    check(setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"]),
          "setup_s must have the largest bound")
    return spec


def run(spec, *args):
    proc = subprocess.run(spec["command"] + list(args), capture_output=True, text=True)
    return proc.returncode, proc.stdout


def run_ok(spec, workload, seed, trace):
    code, out = run(spec, "--workload", workload, "--seed", str(seed), "--seconds", "1",
                    "--trace", str(trace), "--scale", "smoke")
    check(code == 0, f"{workload} trace {trace} exited {code}")
    lines = out.strip().splitlines()
    result = json.loads(lines[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"result keys {result}")
    check(result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1,
          f"{workload} trace {trace} seed {seed}: {out}")
    want = spec["per_layer"] if trace else spec["end_to_end"]
    got = result["metrics"]
    check(set(got) == {m["name"] for m in want},
          f"{workload} trace {trace}: metrics {sorted(got)} != {sorted(m['name'] for m in want)}")
    for m in want:
        check(got[m["name"]]["unit"] == m["unit"], f"{m['name']} unit {got[m['name']]}")
        check(isinstance(got[m["name"]]["value"], (int, float)), f"{m['name']} value")
        printed = [l for l in lines[:-1] if l.split()[:1] == [m["name"]]]
        check(len(printed) == 1 and printed[0].split()[2] == m["unit"],
              f"{m['name']} printed {len(printed)} times: {printed}")
    return got


def main():
    with open("BENCHMARK.json") as f:
        spec = check_spec(f.read())
    code, out = run(spec, "--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0")
    check(code == 2 and not out.strip(), f"unknown workload: exit {code}, output {out!r}")
    code, out = run(spec, "--workload", spec["workloads"][0]["name"], "--seed", "x")
    check(code == 2 and not out.strip(), f"bad seed: exit {code}, output {out!r}")

    for w in spec["workloads"]:
        name = w["name"]
        first = run_ok(spec, name, 1, 0)
        again = run_ok(spec, name, 1, 0)
        for m in SIMULATED:
            check(first[m] == again[m], f"{name}: {m} differs between runs of seed 1")
        run_ok(spec, name, 2, 0)
        run_ok(spec, name, 1, 1)
        print(f"selftest: {name} ok", flush=True)
    print("selftest: all checks passed")


if __name__ == "__main__":
    main()
