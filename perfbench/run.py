#!/usr/bin/env python3
"""Builds and runs the TFMAE end-to-end benchmark from the checkout it sits in.

    python3 perfbench/run.py --workload score|fleet --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout. The library and the benchmark are built
from source into .bench_build/ (the first run compiles; later runs only
check that the build is current). The benchmark's stdout is passed through;
its last line is the JSON result. Traced runs write their chrome trace and
per-layer table under .bench_out/.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        fail("no TFMAE sources next to perfbench/; run from a full checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    log_path = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            try:
                code = subprocess.run(
                    step, stdout=log, stderr=subprocess.STDOUT, env=env,
                    timeout=BUILD_TIMEOUT_S,
                ).returncode
            except subprocess.TimeoutExpired:
                fail("build timed out; see " + log_path)
            if code != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed; see " + log_path)
    return os.path.join(BUILD, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["score", "fleet"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 120:
        fail("--seed must be >= 0 and --seconds in [1, 120]")

    binary = build()
    command = [
        binary, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--out_dir", OUT,
    ]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark timed out after %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        valid = set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, IndexError, TypeError):
        valid = False
    if proc.returncode not in (0, 1) or not valid:
        sys.stdout.write(proc.stdout)
        fail("benchmark exited with %d without a result" % proc.returncode)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
