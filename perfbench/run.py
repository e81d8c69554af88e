#!/usr/bin/env python3
"""Builds the benchmark from the checkout's sources and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The build goes to $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench) in Release mode; build output goes to
stderr so the last line of stdout stays the benchmark's JSON result, which
is checked against BENCHMARK.json's metric lists before it is passed on.
Exits non-zero without a result when the sources are missing, the build
fails, or the run fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out_dir):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not (
        os.path.isdir(os.path.join(ROOT, "src"))
    ):
        fail("no repository sources next to perfbench/; nothing to build")
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        run_build_step(configure)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_build_step(["cmake", "--build", out_dir, "--target", "perfbench", "-j", jobs])
    return os.path.join(out_dir, "perfbench")


def run_build_step(cmd):
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"build step timed out: {' '.join(cmd)}")
    if done.returncode != 0:
        fail(f"build step failed: {' '.join(cmd)}")


def source_id():
    """The commit when the checkout is a git repository, else a digest of
    the sources the benchmark builds."""
    try:
        if not os.path.exists(os.path.join(ROOT, ".git")):
            raise OSError("not a git checkout")
        head = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
        if head.returncode == 0 and head.stdout.strip():
            return head.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as fh:
                digest.update(fh.read())
    return "src-sha256-" + digest.hexdigest()[:12]


def check_result(line, trace):
    """The result must carry exactly the metrics BENCHMARK.json names."""
    result = json.loads(line)
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.isfile(spec_path):
        with open(spec_path) as fh:
            spec = json.load(fh)
        want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if want != got:
            fail(f"metrics differ from BENCHMARK.json: {sorted(set(want.items()) ^ set(got.items()))}")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    out_dir = build_dir()
    binary = build(out_dir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--commit", source_id()]
    if args.trace == "1":
        cmd += ["--trace-out", os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.jsonl")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run timed out after {RUN_TIMEOUT_S}s")
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stderr.write(done.stdout)
        fail(f"run failed with exit code {done.returncode}")
    check_result(lines[-1], args.trace == "1")
    sys.stdout.write(done.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
