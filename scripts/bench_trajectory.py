#!/usr/bin/env python3
"""Runs one end-to-end benchmark workload and appends it to the trajectory.

    scripts/bench_trajectory.py --workload NAME --seed N --side parent|change
                                [--checkout DIR] [--seconds 25] [--trace 0|1]
                                [--out BENCH_e2e.json]

Runs `python3 perfbench/run.py` inside DIR (default: this checkout), reads
the JSON result from its last stdout line, and appends one entry

    {"commit", "side", "workload", "seed", "trace", "correct", "metrics"}

to the committed trajectory file (default BENCH_e2e.json at the root of
this checkout). `commit` is DIR's short HEAD, suffixed "-dirty" when DIR
has uncommitted changes to tracked files; `side` says whether the run
measured the parent of a change or the change itself, so before/after
pairs of one change can be told apart. `metrics` maps each metric name to
its value. A run that fails (non-zero exit or no result line) appends
nothing and exits non-zero.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def git(checkout, *args):
    return subprocess.run(["git", "-C", checkout, *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def commit_of(checkout):
    commit = git(checkout, "rev-parse", "--short", "HEAD")
    if git(checkout, "status", "--porcelain", "--untracked-files=no"):
        commit += "-dirty"
    return commit


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--side", required=True, choices=["parent", "change"])
    parser.add_argument("--checkout", default=ROOT)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", default=os.path.join(ROOT, "BENCH_e2e.json"))
    args = parser.parse_args()

    checkout = os.path.abspath(args.checkout)
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace)],
        cwd=checkout, stdout=subprocess.PIPE, text=True, check=False)
    lines = [l for l in run.stdout.splitlines() if l.startswith("{")]
    if run.returncode != 0 or not lines:
        sys.stdout.write(run.stdout)
        sys.exit(f"error: perfbench failed (exit {run.returncode})")
    result = json.loads(lines[-1])

    entry = {
        "commit": commit_of(checkout),
        "side": args.side,
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "correct": result.get("correct", False),
        "metrics": {name: m["value"]
                    for name, m in result.get("metrics", {}).items()},
    }
    entries = []
    if os.path.exists(args.out):
        with open(args.out) as f:
            entries = json.load(f)
    entries.append(entry)
    with open(args.out, "w") as f:
        json.dump(entries, f, indent=1, sort_keys=True)
        f.write("\n")
    print(json.dumps(entry, sort_keys=True))


if __name__ == "__main__":
    main()
