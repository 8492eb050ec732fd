#!/usr/bin/env python3
"""Determinism self-test of the benchmark.

    python3 perfbench/selftest.py

For each workload, at its full data size and with a one-second window (so
mixed_cold's table is twice the decrypted-block cache, as in a real run):
  * two untraced runs with the same seed must report identical counted
    metrics (cipher_blocks_per_op, stored_bytes_per_user_byte);
  * a run with a second seed must pass every answer check;
  * a traced run must pass its checks, report every per-layer metric in
    BENCHMARK.json and show no AEAD open failure.
Every check runs; the failures are listed at the end and make the exit
code 1. A counted metric that differs at one seed is a determinism bug in
the system under test, not spread to bound. Takes a few minutes.
"""

import json
import os
import subprocess
import sys

import run as bench

COUNTED = ("cipher_blocks_per_op", "stored_bytes_per_user_byte")
SECONDS = "1"


def run(workload, seed, trace, failures):
    """Runs the benchmark binary directly (its result line holds every
    metric, not only the gated ones) and returns the metrics, or None when
    the run failed."""
    proc = subprocess.run(
        [bench.BINARY, "--workload", workload, "--seed", str(seed),
         "--seconds", SECONDS, "--trace", str(trace),
         "--workdir", os.path.join(bench.WORK_DIR, "selftest")],
        stdout=subprocess.PIPE, text=True, timeout=bench.RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        failures.append("%s seed %d trace %d: exit %d"
                        % (workload, seed, trace, proc.returncode))
        return None
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        failures.append("%s seed %d trace %d: answers did not check out"
                        % (workload, seed, trace))
        return None
    return result["metrics"]


def check_workload(workload, per_layer, failures):
    first = run(workload, 7, 0, failures)
    second = run(workload, 7, 0, failures)
    if first and second:
        for name in COUNTED:
            a, b = first[name]["value"], second[name]["value"]
            if a != b:
                failures.append("%s: %s differs at one seed: %r vs %r"
                                % (workload, name, a, b))
            print("%s %s: %r, %r" % (workload, name, a, b), flush=True)
    run(workload, 8, 0, failures)
    traced = run(workload, 7, 1, failures)
    if traced:
        missing = [n for n in per_layer if n not in traced]
        if missing:
            failures.append("%s: traced run lacks %s"
                            % (workload, ", ".join(missing)))
        elif traced["aead.open_fails"]["value"] != 0:
            failures.append("%s: AEAD open failures" % workload)


def main():
    bench.build()
    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    per_layer = [m["name"] for m in spec["per_layer"]]
    failures = []
    for workload in [w["name"] for w in spec["workloads"]]:
        check_workload(workload, per_layer, failures)
    for failure in failures:
        print("FAIL " + failure)
    print("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
