#!/usr/bin/env python3
"""Cross-artifact invariant linter, run by CI (and locally: just run it
from the repo root, no arguments).

The repo has three places where a name minted in one artifact must stay
in sync with another artifact that never compiles against it. Each is a
silent-drift hazard: nothing fails when they diverge, the docs/CI just
quietly stop describing reality. This script makes the drift loud:

  1. Every `rsr_*` metric name registered in src/ must be documented in
     DESIGN.md §12 (the observability contract).
  2. Every connection-opening verb (`@hello`, `@pull`, ...) declared in
     server/handshake.h must be dispatched by server/connection.cc — the
     one verb state machine both hosts feed — and every reply verb must
     have its encode/decode pair in handshake.cc.
  3. Every BENCH_*.json row key that a ci.yml assertion block reads
     (`r["key"]`) must be emitted by the bench that produces the file.

Exit status 0 iff every invariant holds.
"""

import glob
import os
import re
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Verbs a peer opens a connection with; every other verb in handshake.h
# is a reply. connection.cc must dispatch each opening verb, and any verb
# constant it dispatches must be listed here.
OPENING_VERBS = {"@hello", "@log-fetch", "@pull", "@stats"}

# BENCH_*.json file -> the sources that emit its rows.
BENCH_PRODUCERS = {
    # bench_util.h is a producer too: its shared helpers emit e.g. the
    # "p50_ms"/"p99_ms" latency-quantile keys for every serving bench.
    "BENCH_E7.json": [
        "bench/bench_paper_sweep.cc",
        "bench/paper_sweeps.cc",
        "bench/bench_util.h",
    ],
    "BENCH_E16.json": ["bench/bench_e16_server_load.cc", "bench/bench_util.h"],
    "BENCH_E17.json": ["bench/bench_e17_async_load.cc", "bench/bench_util.h"],
    "BENCH_E18.json": ["bench/bench_e18_churn.cc", "bench/bench_util.h"],
    "BENCH_E19.json": ["bench/bench_e19_replication.cc", "bench/bench_util.h"],
    "BENCH_FUZZ.json": [
        "src/fuzz/fuzz_convergence_main.cc",
        "src/fuzz/campaign.cc",
        "src/fuzz/runner.cc",
    ],
}


def read(path):
    with open(os.path.join(REPO, path), encoding="utf-8") as fh:
        return fh.read()


def src_files(*globs):
    out = []
    for pattern in globs:
        out += sorted(glob.glob(os.path.join(REPO, pattern), recursive=True))
    return out


def check_metrics_documented(errors):
    """Invariant 1: registered metric names appear in DESIGN.md §12."""
    names = set()
    for path in src_files("src/**/*.cc", "src/**/*.h"):
        names |= set(re.findall(r'"(rsr_[a-z0-9_]+)"', read(path)))
    design = read("DESIGN.md")
    match = re.search(r"^## §12 .*?(?=^## §|\Z)", design, re.S | re.M)
    if not match:
        errors.append("DESIGN.md: cannot locate section §12")
        return
    section = match.group(0)
    for name in sorted(names):
        if name not in section:
            errors.append(
                f"metric {name} is registered in src/ but not documented "
                f"in DESIGN.md §12"
            )


def check_verbs_served(errors):
    """Invariant 2: opening verbs are dispatched by the connection state
    machine, and reply verbs encode+decode."""
    handshake_h = read("src/server/handshake.h")
    verbs = dict(
        re.findall(
            r'inline constexpr char (k\w+Label)\[\] = "(@[a-z-]+)"',
            handshake_h,
        )
    )
    if not verbs:
        errors.append("server/handshake.h: no verb label constants found")
        return
    for verb in sorted(OPENING_VERBS - set(verbs.values())):
        errors.append(
            f"OPENING_VERBS lists {verb}, which server/handshake.h does not "
            f"declare — stale entry"
        )

    # Dispatch is detected via the label CONSTANT — dispatch always goes
    # through the constants, while the quoted verb literal shows up in
    # comments all over, so literals prove nothing.
    connection_cc = read("src/server/connection.cc")
    handshake_cc = read("src/server/handshake.cc")
    for const, verb in sorted(verbs.items()):
        dispatched = re.search(rf"\b{const}\b", connection_cc) is not None
        if verb in OPENING_VERBS:
            if not dispatched:
                errors.append(
                    f"opening verb {verb} ({const}) is not dispatched by "
                    f"src/server/connection.cc"
                )
        elif dispatched:
            errors.append(
                f"src/server/connection.cc dispatches {verb} ({const}), "
                f"which is not in OPENING_VERBS — list it there"
            )
        elif handshake_cc.count(const) < 2:
            errors.append(
                f"reply verb {verb} ({const}) is referenced "
                f"{handshake_cc.count(const)} time(s) in handshake.cc — "
                f"need an encode/decode pair"
            )


def check_bench_keys(errors):
    """Invariant 3: row keys asserted in ci.yml exist in the bench."""
    ci = read(".github/workflows/ci.yml")
    # Attribute each python assertion block to the BENCH files it opens.
    blocks = re.split(r"python3 - <<'EOF'", ci)[1:]
    seen_bench_files = set()
    for block in blocks:
        block = block.split("\nEOF", 1)[0]
        bench_files = re.findall(r'open\("(BENCH_[A-Z0-9_]+\.json)"\)', block)
        if not bench_files:
            continue
        keys = set(re.findall(r'r\["([a-z0-9_]+)"\]', block))
        keys |= set(re.findall(r'"([a-z0-9_]+)" (?:not )?in r\b', block))
        for bench_file in set(bench_files):
            seen_bench_files.add(bench_file)
            producers = BENCH_PRODUCERS.get(bench_file)
            if not producers:
                errors.append(
                    f"ci.yml asserts on {bench_file} but no producer is "
                    f"mapped in BENCH_PRODUCERS — add the bench source"
                )
                continue
            emitted = "".join(read(p) for p in producers)
            for key in sorted(keys):
                if f'"{key}"' not in emitted:
                    errors.append(
                        f'{bench_file}: ci.yml reads r["{key}"] but none of '
                        f"{producers} emits that key"
                    )
    for bench_file in BENCH_PRODUCERS:
        if bench_file not in seen_bench_files:
            errors.append(
                f"BENCH_PRODUCERS maps {bench_file} but no ci.yml block "
                f"asserts on it — stale mapping"
            )


def main():
    errors = []
    check_metrics_documented(errors)
    check_verbs_served(errors)
    check_bench_keys(errors)
    if errors:
        print(f"{len(errors)} invariant violation(s):", file=sys.stderr)
        for error in errors:
            print(f"  - {error}", file=sys.stderr)
        return 1
    print("lint_invariants: all cross-artifact invariants hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
