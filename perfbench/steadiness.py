#!/usr/bin/env python3
"""Steadiness report: runs each workload repeatedly and summarises the spread.

    python3 perfbench/steadiness.py [--runs 10] [--seed-base 1] [--workloads a,b]
                                    [--seconds S] [--save SET.json]
                                    [--against EARLIER.json]

Run from the repository root. Each run uses its own seed (seed-base,
seed-base + 1, ...), so seed-dependent cost counts as spread. For every end-to-end
metric it prints the median, the quartiles (statistics.quantiles, n=4), the
min/max and the spread (quartile distance / median) next to the metric's
bound from BENCHMARK.json. It exits non-zero when

  - a run fails or reports correct = false or failed > 0,
  - a spread exceeds its bound (setup_s included), or
  - a byte metric (unit "B") differs between runs. The bytes depend only on
    the workload's sizes and protocol parameters, so they repeat across seeds,
  - or, with --against, a median is worse than the earlier set's by more
    than the metric's bound (the check between two sets of the same code).

--save writes this set's values per workload and metric for a later
--against.

Runs are sequential: the benchmark sizes its own threads to the machine.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().split("\n")
    if done.returncode != 0 or not lines[-1].startswith("{"):
        sys.stderr.write(done.stderr[-2000:])
        return None
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seconds", type=float, default=0)
    parser.add_argument("--save", default="")
    parser.add_argument("--against", default="")
    args = parser.parse_args()
    earlier = {}
    if args.against:
        with open(args.against) as fh:
            earlier = json.load(fh)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]

    problems = []
    saved = {}
    for workload in workloads:
        runs = []
        for i in range(args.runs):
            seed = args.seed_base + i
            result = run_once(workload, seed, seconds)
            if result is None:
                problems.append(f"{workload} seed {seed}: run failed")
                continue
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"{workload} seed {seed}: {result['failed']} of "
                                f"{result['attempted']} operations failed")
            runs.append((seed, result))
            print(f"  {workload} seed {seed}: " + " ".join(
                f"{m['name']}={result['metrics'][m['name']]['value']:.6g}"
                for m in metrics), flush=True)
        if len(runs) < 2:
            continue
        print(f"\n{workload}: {len(runs)} runs of {seconds:g}s")
        print(f"  {'metric':26} {'median':>12} {'q1':>12} {'q3':>12} {'min':>12} "
              f"{'max':>12} {'spread':>7} {'bound':>6} {'vs set':>7}")
        saved[workload] = {}
        for m in metrics:
            name = m["name"]
            values = [r["metrics"][name]["value"] for _, r in runs]
            saved[workload][name] = values
            q1, med, q3 = statistics.quantiles(values, n=4)
            change = ""
            before = earlier.get(workload, {}).get(name)
            if before:
                # Positive: this set's median is worse than the earlier one's.
                old = statistics.median(before)
                worse = (med - old) / old if m["better"] == "lower" else (old - med) / old
                change = f"{worse:+7.3f}"
                if worse > m["bound"]:
                    problems.append(f"{workload} {name}: median {worse:+.3f} worse "
                                    f"than the earlier set, bound {m['bound']}")
            spread = (q3 - q1) / med if med else float("inf")
            flag = ""
            if spread > m["bound"]:
                flag = "  OVER BOUND"
                problems.append(f"{workload} {name}: spread {spread:.3f} > bound {m['bound']}")
            elif spread > m["bound"] / 3:
                flag = "  over a third of the bound"
            print(f"  {name:26} {med:12.6g} {q1:12.6g} {q3:12.6g} {min(values):12.6g} "
                  f"{max(values):12.6g} {spread:7.3f} {m['bound']:6.3f} {change:>7}{flag}")
            if m["unit"] == "B" and len(set(values)) > 1:
                problems.append(f"{workload} {name}: differs between runs")
        print()

    if args.save:
        with open(args.save, "w") as fh:
            json.dump(saved, fh, indent=1)
    if problems:
        print("NOT STEADY:")
        for p in problems:
            print("  " + p)
        sys.exit(1)
    print("steady: every spread within its bound, byte metrics exact"
          + (", medians within bound of the earlier set" if earlier else ""))


if __name__ == "__main__":
    main()
