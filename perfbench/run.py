#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The program and the benchmark drivers are
built with CMake into the directory named by $CARGO_TARGET_DIR, or
.bench_build when it is unset; the first run configures and builds, later
runs rebuild only what changed.

A run repeats whole rounds of the seeded workload, each in a fresh process,
until --seconds have passed. Every round is the same simulation, and the
run checks that each one repeats the first exactly. The last line of
standard output is the result: one JSON object with the keys correct,
attempted, failed and metrics. With --trace 1 the first round also writes
its spans to .bench_out/. Any build or run failure exits non-zero without
printing a result.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

WORKLOADS = ("postmark-deleg", "repo-update-poll", "fleet-agg-poll")
ROUND_TIMEOUT_S = 120
# Fields every round of a run must repeat exactly (same seed, same
# simulation).
DETERMINISTIC = ("attempted", "failed", "events", "vfs_calls")
DETERMINISTIC_METRICS = ("virtual_s", "vfs_op_p99_ms", "wan_mb")
# End-to-end metrics that are wall-clock or memory measurements and are
# reported as the median over the run's rounds.
MEDIAN_METRICS = ("setup_s", "wall_s", "peak_rss_mb")


def build_dir():
    return os.environ.get("CARGO_TARGET_DIR") or ".bench_build"


def quiet(cmd):
    """Runs a build step; shows its output only when it fails."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
    return proc.returncode == 0


def build(out):
    """Configures (once) and builds; returns False on any failure."""
    cmake = shutil.which("cmake")
    if cmake is None:
        print("cmake not found", file=sys.stderr)
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure = [cmake, "-S", "perfbench", "-B", out,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if not quiet(configure):
            return False
    return quiet([cmake, "--build", out, "-j", jobs])


def run_round(cmd):
    """One round in its own process; its JSON result, or None."""
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("round exceeded %d s" % ROUND_TIMEOUT_S, file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print("round exited with %d" % proc.returncode, file=sys.stderr)
        return None
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject", default="",
                        help="seeded checker fault (see check_faults.py)")
    args = parser.parse_args()

    out = build_dir()
    if not build(out):
        print("build failed", file=sys.stderr)
        return 1
    exe = os.path.join(out, "perfbench_traced" if args.trace else "perfbench")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(args.trace)]
    if args.inject:
        cmd += ["--inject", args.inject]

    rounds = []
    start = time.monotonic()
    while not rounds or time.monotonic() - start < args.seconds:
        round_cmd = list(cmd)
        if args.trace and not rounds:
            os.makedirs(".bench_out", exist_ok=True)
            # One file per workload, overwritten: a repo-update-poll trace
            # is ~80 MB.
            round_cmd += ["--trace-out", ".bench_out/trace-%s.json" % args.workload]
        result = run_round(round_cmd)
        if result is None:
            return 1
        rounds.append(result)
        if not result["correct"]:
            break

    first = rounds[0]
    correct = all(r["correct"] for r in rounds)
    for i, r in enumerate(rounds[1:], start=2):
        same = all(r[k] == first[k] for k in DETERMINISTIC) and all(
            r["metrics"][m]["value"] == first["metrics"][m]["value"]
            for m in DETERMINISTIC_METRICS)
        if not same:
            print("round %d diverged from round 1: not deterministic" % i,
                  file=sys.stderr)
            correct = False

    def median(name):
        return statistics.median(r["metrics"][name]["value"] for r in rounds)

    walls = [r["metrics"]["wall_s"]["value"] for r in rounds]
    print("rounds %d, wall_s %.6f (min %.6f, max %.6f), setup_s %.6f, "
          "virtual_s %.6f" % (len(rounds), median("wall_s"), min(walls),
                              max(walls), median("setup_s"),
                              first["metrics"]["virtual_s"]["value"]))

    metrics = dict(first["metrics"])
    for name in MEDIAN_METRICS:
        metrics[name] = dict(metrics[name], value=median(name))
    if args.trace:
        for name in MEDIAN_METRICS + DETERMINISTIC_METRICS:
            del metrics[name]
        metrics["sim.events_per_s"] = dict(
            metrics["sim.events_per_s"], value=first["events"] / median("wall_s"))
    result = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
