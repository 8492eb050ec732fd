#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload point_hot --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run configures and builds
perfbench/ (which compiles ../src) into .bench_build/; later runs only
re-check the build. Page files, WAL copies and span dumps go to
.bench_work/. Everything the benchmark binary prints is passed through;
the last line is one JSON object with `correct`, `attempted`, `failed` and
`metrics`, where `metrics` holds the end-to-end metrics named in
BENCHMARK.json (--trace 0) or its per-layer metrics (--trace 1). The exit
code is 0 only when every answer checked out.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
WORK_DIR = os.path.join(ROOT, ".bench_work")
BINARY = os.path.join(BUILD_DIR, "bin", "perfbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no sdbenc sources at %s/src; run from a full checkout" % ROOT)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload)
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    build()
    os.makedirs(WORK_DIR, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", WORK_DIR]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if not lines:
        fail("benchmark printed nothing (exit %d)" % proc.returncode)
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    missing = [n for n in wanted if n not in result["metrics"]]
    if missing:
        fail("benchmark did not report " + ", ".join(missing))
    correct = bool(result["correct"]) and proc.returncode == 0
    print(json.dumps({
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {n: result["metrics"][n] for n in wanted},
    }))
    sys.stdout.flush()
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
