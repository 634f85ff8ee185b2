#!/usr/bin/env python3
"""Tests of the benchmark's output checks: each seeded fault must be caught.

    python3 perfbench/check_faults.py

Run from the repository root. Each case runs one round of a workload with a
fault injected into the benchmark's own data path (never into the program)
and asserts the verdict:

  clean          postmark-deleg passes; only the F1 probe fails (1 per round)
  flip-read      a byte flipped in a read result       -> correct=false
  shorten-file   a server file shortened by one block  -> correct=false
  f1-zero        an F1-shaped zero range on the server -> one more failed
                 operation, correct stays true
  stale-read     a pre-update read after the bound     -> correct=false
  getinv-over    a GETINV count one above the bound    -> correct=false

Exits 0 when every case behaves, 1 otherwise.
"""

import json
import subprocess
import sys

POSTMARK_OPS = 3001  # transactions + the F1 probe, per round


def run(workload, inject):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "7", "--seconds", "0.1", "--trace", "0"]
    if inject:
        cmd += ["--inject", inject]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    if proc.returncode != 0:
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    cases = [
        ("postmark-deleg", "", lambda r: r["correct"] and
         r["failed"] * POSTMARK_OPS == r["attempted"]),
        ("postmark-deleg", "flip-read", lambda r: not r["correct"]),
        ("postmark-deleg", "shorten-file", lambda r: not r["correct"]),
        ("postmark-deleg", "f1-zero", lambda r: r["correct"] and
         r["failed"] * POSTMARK_OPS == 2 * r["attempted"]),
        ("repo-update-poll", "", lambda r: r["correct"] and r["failed"] == 0),
        ("repo-update-poll", "stale-read", lambda r: not r["correct"]),
        ("fleet-agg-poll", "", lambda r: r["correct"] and r["failed"] == 0),
        ("fleet-agg-poll", "getinv-over", lambda r: not r["correct"]),
    ]
    ok = True
    for workload, inject, expect in cases:
        result = run(workload, inject)
        passed = result is not None and expect(result)
        ok = ok and passed
        detail = ("run failed" if result is None else
                  "correct=%s attempted=%d failed=%d" %
                  (result["correct"], result["attempted"], result["failed"]))
        print("%-4s %-17s %-13s %s" % ("ok" if passed else "FAIL", workload,
                                        inject or "clean", detail))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
