#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each metric's spread.

    python3 e2ebench/spread.py --workload <name> [--seeds 1-10] [--seconds 10] [--trace 0]

Run from the root of the repository. For every metric it prints the median,
the first and third quartiles (statistics.quantiles, n=4) and the spread:
the distance between the quartiles as a share of the median. It fails when
a run exits non-zero or reports other metrics than BENCHMARK.json names. The result
lines of every run are appended to e2ebench/out/spread-<workload>.jsonl.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text):
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(seed) for seed in text.split(",")]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", default="10")
    parser.add_argument("--trace", default="0")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
        spec = json.load(spec_file)
    expected = {metric["name"]: metric["unit"] for metric in
                spec["per_layer" if args.trace == "1" else "end_to_end"]}
    out_dir = os.path.join(ROOT, "e2ebench", "out")
    os.makedirs(out_dir, exist_ok=True)
    log_path = os.path.join(out_dir, "spread-%s.jsonl" % args.workload)
    values, shares = {}, set()
    for seed in parse_seeds(args.seeds):
        start = time.monotonic()
        run = subprocess.run(
            [sys.executable, os.path.join(ROOT, "e2ebench", "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", args.seconds, "--trace", args.trace],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        wall = time.monotonic() - start
        lines = run.stdout.strip().splitlines()
        if run.returncode != 0 or not lines:
            print("seed %d: exit %d" % (seed, run.returncode))
            return 1
        result = json.loads(lines[-1])
        with open(log_path, "a") as log:
            log.write(json.dumps({"seed": seed, "wall_s": wall,
                                  "result": result}) + "\n")
        reported = {name: metric["unit"]
                    for name, metric in result["metrics"].items()}
        if reported != expected:
            print("seed %d: metrics differ from BENCHMARK.json" % seed)
            return 1
        shares.add(result["failed"] / result["attempted"])
        print("seed %d: %.1fs correct=%s attempted=%d failed=%d" %
              (seed, wall, result["correct"], result["attempted"],
               result["failed"]))
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    print("failed share(s): %s" % sorted(shares))
    for name, series in values.items():
        median = statistics.median(series)
        if len(series) >= 2:
            q1, _, q3 = statistics.quantiles(series, n=4)
        else:
            q1 = q3 = median
        spread = (q3 - q1) / median if median else float("nan")
        print("%-32s median %12.4f  q1 %12.4f  q3 %12.4f  spread %.3f" %
              (name, median, q1, q3, spread))
    return 0


if __name__ == "__main__":
    sys.exit(main())
