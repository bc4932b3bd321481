#!/usr/bin/env python3
"""Run one workload of the bsmp end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. It builds the program and the perfbench
binary from source (Release, into .bench_build/ at the checkout root; the
first run pays for the build), runs the workload, checks that the printed
metric names are the ones BENCHMARK.json declares, and prints the result
JSON as the last line of standard output. perfbench/NOTES.md describes
the workloads and metrics.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "cmake")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("repro", "sim_small_leaf", "sim_wide_leaf", "sim_forked")


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    """Configure once, then (re)build the perfbench target."""
    for need in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("no program sources to build: %s is missing" % need)
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append([
            "cmake", "-S", ROOT, "-B", BUILD,
            "-DCMAKE_BUILD_TYPE=Release",
            "-DBSMP_BUILD_TESTS=OFF",
            "-DBSMP_BUILD_BENCH=OFF",
            "-DBSMP_BUILD_EXAMPLES=OFF",
            "-DCMAKE_PROJECT_bsmp_INCLUDE=" +
            os.path.join(HERE, "cmake", "hook.cmake"),
        ])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    log_path = os.path.join(BUILD_ROOT, "build.log")
    with open(log_path, "w") as log:
        for step in steps:
            done = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                  timeout=850)
            if done.returncode != 0:
                break
    if done.returncode != 0:
        with open(log_path) as log:
            sys.stderr.write("".join(log.readlines()[-40:]))
        fail("build failed (log: %s)" % log_path, 1)


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--expected", os.path.join(HERE, "expected.txt")]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            BUILD_ROOT, "spans_%s_%d.json" % (args.workload, args.seed))]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=170)
    except subprocess.TimeoutExpired:
        fail("perfbench timed out", 1)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        fail("perfbench exited with code %d" % done.returncode, 1)
    result = json.loads(lines[-1])
    names = list(result["metrics"])
    if names != declared_metrics(args.trace):
        fail("printed metrics %s differ from BENCHMARK.json" % names, 1)
    sys.stdout.write(done.stdout)


if __name__ == "__main__":
    main()
