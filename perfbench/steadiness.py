#!/usr/bin/env python3
"""Check that the benchmark's end-to-end metrics are steady across seeds.

    python3 perfbench/steadiness.py [--runs 10] [--workload NAME ...]

Runs perfbench/run.py once per seed (seeds 1..runs) on each workload and
prints, per end-to-end metric, the median of the runs and the spread:
the distance between the first and third quartile of the values
(statistics.quantiles(values, n=4)) as a share of their median. A metric
is steady when its spread stays below a third of its bound in
BENCHMARK.json (setup_s only has to stay within its bound).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", action="append",
                    choices=[w["name"] for w in spec["workloads"]])
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    steady = True
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        values = {name: [] for name in bounds}
        for seed in range(1, args.runs + 1):
            done = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
            result = json.loads(done.stdout.splitlines()[-1])
            if not result["correct"]:
                print("%s seed %d: %d of %d operations failed" % (
                    workload, seed, result["failed"], result["attempted"]))
                steady = False
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        for name, vals in values.items():
            s = spread(vals)
            limit = bounds[name] if name == "setup_s" else bounds[name] / 3
            ok = s < limit
            steady = steady and ok
            print("%-15s %-12s median %-12.6g spread %.4f (limit %.4f) %s" % (
                workload, name, statistics.median(vals), s, limit,
                "ok" if ok else "UNSTEADY"))
            print("    " + " ".join("%.6g" % v for v in vals))
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
