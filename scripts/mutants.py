#!/usr/bin/env python3
"""Mutation gate: every mutation listed in scripts/mutants.txt must be killed.

    python3 scripts/mutants.py [NAME ...]

Each entry of scripts/mutants.txt names one source edit (a file, original
text that must occur exactly once, its replacement) and the test targets
that must fail with it. The script copies the tracked files of the
working tree (`git stash create`, or HEAD on a clean tree) with
`git archive` into target/mutants/src (a tree exported without its
repository is copied whole, minus target/), then:

1. checks every entry's original text against the copy: a text that no
   longer occurs exactly once marks the entry stale;
2. runs every kill target on the unmutated copy, which must pass;
3. applies each mutation in turn and runs its kill targets, each of which
   must fail its tests. A mutation that does not build kills nothing and
   is reported as such.

All builds share one target directory (target/mutants/build), so each
mutation rebuilds only the crates it touches. Names on the command line
run those entries only. Exits 1 on a stale entry, a failing baseline, a
mutation that does not build, or a survivor.
"""

import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, "target", "mutants")
SRC = os.path.join(WORK, "src")
FIELDS = ("name", "file", "from", "to", "kill")


def parse(text):
    """The entries of a mutants file: blank-line separated `key: value`
    blocks; `#` lines are comments and `\\n` in from/to is a line break."""
    entries, entry = [], {}
    for number, line in enumerate(text.splitlines() + [""], 1):
        if line.startswith("#"):
            continue
        if not line.strip():
            if entry:
                missing = [f for f in FIELDS if f not in entry]
                if missing:
                    raise ValueError(f"entry ending at line {number} lacks {', '.join(missing)}")
                entries.append(entry)
            entry = {}
            continue
        key, sep, value = line.partition(":")
        if not sep or key not in FIELDS:
            raise ValueError(f"line {number}: expected one of {', '.join(FIELDS)}")
        value = value[1:] if value.startswith(" ") else value
        if key == "kill":
            entry.setdefault("kill", []).append(value.split())
        elif key in entry:
            raise ValueError(f"line {number}: second `{key}` in one entry")
        else:
            entry[key] = value.replace("\\n", "\n") if key in ("from", "to") else value
    return entries


def stale(entry):
    """Why `entry` no longer applies to the copy, or None."""
    path = os.path.join(SRC, entry["file"])
    if not os.path.exists(path):
        return f"{entry['file']} does not exist"
    count = open(path, encoding="utf-8").read().count(entry["from"])
    return None if count == 1 else f"original text occurs {count} times in {entry['file']}"


def cargo_test(args, *extra):
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(WORK, "build"))
    cmd = ["cargo", "test", "--offline", "-q", *extra, *args]
    return subprocess.run(cmd, cwd=SRC, env=env, capture_output=True, text=True)


def copy_tree():
    shutil.rmtree(SRC, ignore_errors=True)
    top = subprocess.run(["git", "rev-parse", "--show-toplevel"], cwd=ROOT, capture_output=True,
                         text=True)
    if top.returncode != 0 or os.path.realpath(top.stdout.strip()) != os.path.realpath(ROOT):
        # An exported tree (`git archive`) has no repository: copy it whole.
        shutil.copytree(ROOT, SRC, ignore=shutil.ignore_patterns("target"))
        return
    # A copied checkout's index holds stale stat data, and on a clean tree
    # `git stash create` then exits 1 with no output; a refresh first makes
    # it exit 0 (with no stash on a clean tree, hence HEAD).
    subprocess.run(["git", "update-index", "-q", "--refresh"], cwd=ROOT, check=True)
    tree = subprocess.run(["git", "stash", "create"], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip() or "HEAD"
    os.makedirs(SRC)
    archive = subprocess.run(["git", "archive", tree], cwd=ROOT, capture_output=True, check=True)
    subprocess.run(["tar", "-x", "-C", SRC], input=archive.stdout, check=True)


def main(names):
    entries = parse(open(os.path.join(ROOT, "scripts", "mutants.txt"), encoding="utf-8").read())
    unknown = set(names) - {e["name"] for e in entries}
    if unknown:
        sys.exit(f"unknown mutation(s): {', '.join(sorted(unknown))}")
    if names:
        entries = [e for e in entries if e["name"] in names]
    started = time.monotonic()
    copy_tree()
    failures = 0
    for entry in entries:
        reason = stale(entry)
        if reason:
            print(f"STALE    {entry['name']}: {reason}")
            failures += 1
    if failures:
        return 1
    targets = sorted({tuple(k) for e in entries for k in e["kill"]})
    for target in targets:
        run = cargo_test(target)
        if run.returncode != 0:
            print(f"BASELINE {' '.join(target)} fails without a mutation:\n{run.stdout[-2000:]}{run.stderr[-2000:]}")
            failures += 1
    if failures:
        return 1
    print(f"baseline: {len(targets)} targets pass ({time.monotonic() - started:.0f} s)")
    for entry in entries:
        t0 = time.monotonic()
        path = os.path.join(SRC, entry["file"])
        original = open(path, encoding="utf-8").read()
        with open(path, "w", encoding="utf-8") as f:
            f.write(original.replace(entry["from"], entry["to"]))
        try:
            verdicts = []
            for target in entry["kill"]:
                if cargo_test(target, "--no-run").returncode != 0:
                    verdicts.append("does not build")
                    break
                verdicts.append("killed" if cargo_test(target).returncode != 0 else "SURVIVED")
        finally:
            with open(path, "w", encoding="utf-8") as f:
                f.write(original)
        ok = all(v == "killed" for v in verdicts)
        failures += not ok
        detail = "; ".join(f"{' '.join(t)}: {v}" for t, v in zip(entry["kill"], verdicts))
        print(f"{'killed  ' if ok else 'FAIL    '} {entry['name']} ({time.monotonic() - t0:.0f} s): {detail}")
    print(f"{len(entries)} mutations, {failures} not killed, {time.monotonic() - started:.0f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
