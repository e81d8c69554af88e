#!/usr/bin/env python3
"""Runs perfbench on two checkouts in alternating pairs and appends the
result as one row of BENCH_PERF.json, the repository's perf trajectory.

    python3 tools/perf_pairs.py --parent DIR --change DIR --pr N
        [--seed-base 1] [--out BENCH_PERF.json]

Each checkout builds and runs its own perfbench (`perfbench/run.py`, so each
side is measured with its own benchmark). Every workload of BENCHMARK.json
runs in 10 pairs, each run as long as its run_seconds. Pair i runs both
sides with seed seed-base + i, parent first in even pairs and change first
in odd ones, so a slow spell of the machine falls on both sides alike. For
every workload and end-to-end metric of BENCHMARK.json the row keeps both
sides' values (in pair order), their medians and quartiles
(statistics.quantiles, n=4), and in how many pairs the change was better.
A side is named by the commit its perfbench reports: the git commit, or a
digest of the sources when the checkout is not a git repository.

The row is appended to --out (created if missing); earlier rows are kept.
Exits non-zero, appending nothing, when a run fails or an operation of it
fails.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PAIRS = 10  # fewest pairs a perf claim rests on


def run_once(checkout, workload, seed, seconds):
    cmd = [sys.executable, os.path.join(checkout, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          timeout=1200)
    lines = done.stdout.strip().split("\n")
    if done.returncode != 0 or not lines[-1].startswith("{"):
        sys.stderr.write(done.stderr[-2000:])
        sys.exit(f"perf_pairs: {checkout} {workload} seed {seed}: run failed")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        sys.exit(f"perf_pairs: {checkout} {workload} seed {seed}: "
                 f"{result['failed']} of {result['attempted']} operations failed")
    commit = re.search(r"commit=(\S+)", lines[0])
    return commit.group(1) if commit else "unknown", result


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": median, "q1": q1, "q3": q3}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--out", default=os.path.join(ROOT, "BENCH_PERF.json"))
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    sides = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}

    commits = {}
    row = {"pr": args.pr, "seconds": seconds,
           "seeds": [args.seed_base + i for i in range(PAIRS)],
           "workloads": {}}
    for workload in workloads:
        runs = {"parent": [], "change": []}
        for i, seed in enumerate(row["seeds"]):
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            for side in order:
                commits[side], result = run_once(sides[side], workload, seed, seconds)
                runs[side].append(result["metrics"])
            print(f"  {workload} seed {seed}: " + " ".join(
                f"{m['name']}={runs['parent'][-1][m['name']]['value']:.4g}"
                f"->{runs['change'][-1][m['name']]['value']:.4g}"
                for m in spec["end_to_end"]), flush=True)
        row["workloads"][workload] = {}
        for m in spec["end_to_end"]:
            name = m["name"]
            parent = [r[name]["value"] for r in runs["parent"]]
            change = [r[name]["value"] for r in runs["change"]]
            better = (lambda p, c: c < p) if m["better"] == "lower" else (
                lambda p, c: c > p)
            row["workloads"][workload][name] = {
                "unit": m["unit"], "better": m["better"],
                "parent": summary(parent), "change": summary(change),
                "change_wins": sum(better(p, c) for p, c in zip(parent, change)),
            }
    row["parent_commit"] = commits["parent"]
    row["change_commit"] = commits["change"]

    trajectory = {"rows": []}
    if os.path.isfile(args.out):
        with open(args.out) as fh:
            trajectory = json.load(fh)
    trajectory["rows"].append(row)
    with open(args.out, "w") as fh:
        json.dump(trajectory, fh, indent=1)
        fh.write("\n")
    print(f"appended a row of {PAIRS} pairs to {args.out}")


if __name__ == "__main__":
    main()
