#!/usr/bin/env python3
"""The repository's benchmark: one command per workload run.

    python3 perfbench/run.py --workload sweep_mix|deep_cell|live_kv \
        --seed N --seconds S --trace 0|1

Run it from the repository root.  It builds the libraries, reissue_cli and
the benchmark runner from source (CMake, Release) into $CARGO_TARGET_DIR
(default .bench_build), runs the runner's unit tests, runs the workload,
cross-checks it against the user-facing reissue_cli commands, and prints
one JSON object as the last line of stdout:

    {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}

--trace 0 prints the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones (spans go to <build>/out/<run>/spans-<workload>.csv).
perfbench/README.md defines every metric per workload.
"""

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep_mix", "deep_cell", "live_kv")

# reissue_cli arguments equivalent to each sim workload's sweep (see
# src/sim_workloads.cpp).
SWEEP_ARGS = {
    "sweep_mix": ["--scenarios", "sim-all,fault-matrix"],
    "deep_cell": ["--scenarios", "queueing-u30", "--queries", "1000000",
                  "--percentile", "0.999", "--policies", "none,r:30:0.5",
                  "--replications", "4"],
}
# The live workload's lo level as a loadgen command (dataset seed 0x10ad).
LOADGEN_ARGS = ["loadgen", "--backend", "kvstore", "--rate", "3000",
                "--policy", "d:0.25", "--workers", "2", "--seed", "0x10ad",
                "--duration", "3"]

# loadgen times from submission, the benchmark from the due time; their lo
# p50s must agree within this factor (one p50 moves by up to a third from
# run to run on a shared host, so the benchmark's bounds would not hold).
LOADGEN_P50_FACTOR = 2.0

RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def run(cmd, timeout, capture=True):
    """Runs cmd; its stderr passes through, stdout is captured."""
    return subprocess.run(cmd, stdout=subprocess.PIPE if capture else sys.stderr,
                          text=True, timeout=timeout, check=False)


def build(build_dir):
    if not (build_dir / "CMakeCache.txt").exists():
        configure = run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                         "-DCMAKE_BUILD_TYPE=Release"], 600, capture=False)
        if configure.returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    made = run(["cmake", "--build", str(build_dir), "-j", jobs, "--target",
                "perfbench", "perfbench_selftest", "reissue_cli"], 900,
               capture=False)
    return made.returncode == 0


def csv_mismatches(expected, actual):
    a, b = expected.splitlines(), actual.splitlines()
    return sum(1 for i in range(max(len(a), len(b)))
               if i >= len(a) or i >= len(b) or a[i] != b[i])


def check_sweep(cli, workload, seed, csv_path):
    """The workload's CSV must equal `reissue_cli sweep` byte for byte.
    Returns (rows compared, rows differing)."""
    out = run([str(cli), "sweep", *SWEEP_ARGS[workload], "--threads", "4",
               "--seed", str(seed)], RUN_TIMEOUT_S)
    mine = csv_path.read_text() if csv_path.exists() else ""
    if out.returncode != 0:
        return max(1, len(mine.splitlines())), max(1, len(mine.splitlines()))
    bad = csv_mismatches(out.stdout, mine)
    if bad:
        log(f"{bad} rows differ from reissue_cli sweep")
    return len(out.stdout.splitlines()), bad


def loadgen_p50(cli):
    """p50 of `reissue_cli loadgen` at the lo rate, or None on failure."""
    out = run([str(cli), *LOADGEN_ARGS], RUN_TIMEOUT_S)
    match = re.search(r"latency ms:.*?\bp50 ([0-9.eE+-]+)", out.stdout)
    if out.returncode != 0 or not match:
        log("reissue_cli loadgen failed")
        return None
    return float(match.group(1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.exists():
        log("BENCHMARK.json not found at the repository root")
        return 1
    spec = json.loads(spec_path.read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = build_dir.resolve()
    if not (ROOT / "src").is_dir() or not build(build_dir):
        log("build failed")
        return 1
    selftest = run([str(build_dir / "perfbench_selftest"), "--gtest_brief=1"],
                   120, capture=False)
    if selftest.returncode != 0:
        log("the benchmark's own unit tests failed")
        return 1

    out_dir = build_dir / "out" / f"{args.workload}-{args.seed}-{args.trace}"
    runner = run([str(build_dir / "perfbench"), "--workload", args.workload,
                  "--seed", str(args.seed), "--seconds", str(args.seconds),
                  "--trace", str(args.trace), "--out-dir", str(out_dir),
                  "--reference-dir", str(HERE / "reference")], RUN_TIMEOUT_S)
    lines = runner.stdout.strip().splitlines()
    if runner.returncode != 0 or not lines:
        log(f"runner exited with {runner.returncode}")
        return 1
    result = json.loads(lines[-1])

    # The printed metrics must be exactly the declared ones, with their units.
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if want != got:
        log(f"metrics differ from BENCHMARK.json: {sorted(set(want) ^ set(got))}")
        return 1

    cli = build_dir / "reissue" / "tools" / "reissue_cli"
    if args.workload in SWEEP_ARGS and not args.trace:
        rows, bad = check_sweep(cli, args.workload, args.seed,
                                out_dir / f"{args.workload}.csv")
        result["attempted"] += rows
        result["failed"] += bad
    if args.workload == "live_kv" and args.trace:
        theirs = loadgen_p50(cli)
        mine = result["metrics"]["live.p50_ms.lo"]["value"]
        ratio = theirs / mine if theirs and mine > 0 else 0.0
        result["attempted"] += 1
        ok = 1 / LOADGEN_P50_FACTOR <= ratio <= LOADGEN_P50_FACTOR
        log(f"loadgen lo p50 / benchmark lo p50 = {ratio:.3f}"
            f" ({'agree' if ok else 'DISAGREE'})")
        if not ok:
            result["failed"] += 1
    result["correct"] = bool(result["correct"]) and result["failed"] == 0
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except subprocess.TimeoutExpired as e:
        log(f"timed out: {e.cmd[0]}")
        sys.exit(1)
