#!/usr/bin/env python3
"""Runs one workload N times, on seeds 1..N, and reports each end-to-end
metric's median and quartiles against its bound in BENCHMARK.json.

    python3 perfbench/repeat.py --workload postmark-deleg --runs 10

Run from the repository root. Each run lasts run_seconds of BENCHMARK.json.
The spread is (Q3 - Q1) / median with the quartiles of
statistics.quantiles(values, n=4); a metric is "steady" when its spread
stays under a third of its bound, and fails when it exceeds the bound. The
share of failed operations must be the same in every run.
"""

import argparse
import fractions
import json
import statistics
import subprocess
import sys


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    metrics = bench["end_to_end"]
    values = {m["name"]: [] for m in metrics}
    shares = []
    for seed in range(1, args.runs + 1):
        cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
               "--trace", "0"]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print("seed %d: run failed (exit %d)" % (seed, proc.returncode))
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        shares.append((result["failed"], result["attempted"]))
        print("seed %d: correct=%s attempted=%d failed=%d" %
              (seed, result["correct"], result["attempted"], result["failed"]))
        if not result["correct"]:
            return 1
        for name in values:
            values[name].append(result["metrics"][name]["value"])

    print("\n%-28s %12s %12s %12s %8s %6s  verdict" %
          ("metric", "median", "q1", "q3", "spread", "bound"))
    ok = True
    for m in metrics:
        v = values[m["name"]]
        q1, med, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med if med else 0.0
        bound = m["bound"]
        if spread < bound / 3:
            verdict = "steady"
        elif spread <= bound:
            verdict = "within bound"
        else:
            verdict = "TOO WIDE"
            ok = False
        print("%-28s %12.6g %12.6g %12.6g %8.4f %6.2f  %s" %
              (m["name"], med, q1, q3, spread, bound, verdict))
    ratios = {fractions.Fraction(f, a) for f, a in shares}
    print("\nfailed share per run: %s" %
          ("identical (%d/%d)" % shares[0] if len(ratios) == 1 else
           "DIFFERS: %s" % shares))
    return 0 if ok and len(ratios) == 1 else 1


if __name__ == "__main__":
    sys.exit(main())
