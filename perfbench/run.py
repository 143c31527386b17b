#!/usr/bin/env python3
"""The repo benchmark: builds perfbench/ and runs one workload.

    python3 perfbench/run.py --workload warm --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The C++ benchmark (perfbench/src) is
built in Release from the checkout's own sources into $CARGO_TARGET_DIR
(default .bench_build), then run once. Its last stdout line is the result:

    {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}

Each workload serves one galoisd-configured Database from its own server
process (GaloisServer over loopback GALP), loaded by min(nproc, 4)
closed-loop clients, one connection each. Every answer is checked against
references computed in-process at setup.

Workloads (the seed picks the request order and the churn variants; the
simulated model seed is fixed):
  warm     the builtin 46-query mix, materialisation cache on and warmed,
           no LLM delay: the CPU path net -> sql -> planner -> core ->
           engine does all the work.
  cold     the same mix with no caches and a 1 ms wall delay per model
           round trip: LLM-bound.
  churn    seeded literal variants of the filtered queries, several times
           the 64-entry cache, with prompt cache and persistent store;
           the server recovers a journal a pre-pass wrote. A noise-free
           model profile, the precondition of predicate subsumption.
  cluster  cold's configuration on two nodes behind a coordinator.

--trace 0 reports the end-to-end metrics; --trace 1 reports the per-layer
metrics from a separate in-process replay of the same stream, traced with
spans (written to <build>/work/spans-*.json) and timed against an
untraced replay.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configures (once) and builds the benchmark; returns the binary."""
    log_path = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j",
                  str(os.cpu_count() or 1)])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "galois_perfbench")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=["warm", "cold", "churn", "cluster"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    if not os.path.exists(os.path.join(ROOT, "src", "api", "database.h")):
        fail("galois sources not found next to perfbench/ (run from a "
             "checkout of the repository)")

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                               ".bench_build"))
    binary = build(build_dir)
    work_dir = os.path.join(build_dir, "work")
    os.makedirs(work_dir, exist_ok=True)

    cmd = [binary, "run", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", work_dir]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()  # its server processes die with it
        proc.communicate()
        fail("run timed out")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(out)
        fail("benchmark exited with code %d" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(out)
        fail("last line is not a result object")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result object")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
