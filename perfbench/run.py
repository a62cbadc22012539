#!/usr/bin/env python3
"""Builds and runs the benchmark of record for one workload.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload sim-hs-n4-sat --seed 1 --seconds 20 --trace 0

The benchmark is built from source with dune into .bench_build (release
profile), then run. Its standard output is passed through; the last line is
one JSON object with the keys correct, attempted, failed and metrics. Any
failure (missing sources, build error, failed correctness check, timeout)
exits non-zero without printing that line.
"""

import argparse
import json
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
PROFILE = "release"
TARGET = "./perfbench/bench.exe"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(needed):
            fail("not a source checkout: %s is missing" % needed, 2)

    build = [
        "dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
        "--profile", PROFILE, "--display", "quiet", TARGET,
    ]
    try:
        done = subprocess.run(build, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except FileNotFoundError:
        fail("dune is not installed", 2)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if done.returncode != 0:
        fail("build failed (exit %d)" % done.returncode)

    events_dir = os.path.join(BUILD_DIR, "runtime_events")
    os.makedirs(events_dir, exist_ok=True)
    env = dict(os.environ, OCAML_RUNTIME_EVENTS_DIR=events_dir)
    exe = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
    cmd = [
        exe, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", "%g" % args.seconds, "--trace", str(args.trace),
        "--profile", PROFILE,
    ]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, env=env,
                             timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("run timed out after %d s" % RUN_TIMEOUT_S)
    lines = run.stdout.splitlines()
    if run.returncode != 0:
        sys.stdout.write("\n".join(l for l in lines if not l.startswith("{")) + "\n")
        fail("benchmark failed (exit %d)" % run.returncode)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("benchmark printed no result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"} or not result["correct"]:
        fail("malformed or incorrect result: " + lines[-1])
    sys.stdout.write(run.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
