#!/usr/bin/env python3
"""Builds and runs the MWeaver session benchmark.

One run (from the repository root):

    python3 perfbench/run.py --workload cold-search --seed 1 --seconds 10 --trace 0

builds perfbench/ (a CMake project that compiles ../src) into the directory
named by CARGO_TARGET_DIR (default .bench_build), runs one workload, and
passes the benchmark's output through; its last line is the JSON result.
The exit code is the benchmark's: non-zero on a wrong answer or a failed
build, in which case no result line is printed.

Repeat mode runs one workload with seeds seed, seed+1, ... and prints each
metric's median and quartiles (statistics.quantiles, n=4) and the
interquartile range as a share of the median:

    python3 perfbench/run.py --workload hot-sessions --repeat 10 --seed 1
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cold-search", "hot-sessions", "update-churn", "sharded-churn")


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configures (once) and builds the benchmark binary; returns its path."""
    out = build_dir()
    if not os.path.exists(os.path.join(HERE, "..", "src", "CMakeLists.txt")):
        sys.stderr.write("perfbench: MWeaver sources (src/) not found next "
                         "to perfbench/\n")
        return None
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", out, "--target", "perfbench_sessions",
           "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        return None
    return os.path.join(out, "perfbench_sessions")


def bench_args(args, seed):
    cmd = ["--workload", args.workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        # One file per workload, overwritten by its latest traced run.
        cmd += ["--spans-out", os.path.join(
            build_dir(), "spans-%s.json" % args.workload)]
    return cmd


def run_once(binary, args):
    proc = subprocess.run([binary] + bench_args(args, args.seed))
    return proc.returncode


def run_repeat(binary, args):
    values = {}
    units = {}
    all_correct = True
    for i in range(args.repeat):
        seed = args.seed + i
        proc = subprocess.run([binary] + bench_args(args, seed),
                              stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stdout.write(proc.stdout)
            print("seed %d: exit code %d" % (seed, proc.returncode))
            return 1
        result = json.loads(lines[-1])
        all_correct = all_correct and result["correct"]
        print("seed %d: %s" % (seed, ", ".join(
            "%s=%.6g" % (k, v["value"]) for k, v in result["metrics"].items())))
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
    print("\n%s, %d runs (seeds %d..%d), trace %d:" %
          (args.workload, args.repeat, args.seed, args.seed + args.repeat - 1,
           args.trace))
    print("%-40s %14s %14s %14s %10s" %
          ("metric", "q1", "median", "q3", "iqr/med"))
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 \
            else (vals[0],) * 3
        spread = (q3 - q1) / med if med else float("nan")
        print("%-40s %14.6g %14.6g %14.6g %10.4f  %s" %
              (name, q1, med, q3, spread, units[name]))
    print("all runs correct: %s" % all_correct)
    return 0 if all_correct else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="run this many seeds and print quartiles")
    args = parser.parse_args()
    binary = build()
    if binary is None:
        sys.stderr.write("perfbench: build failed\n")
        return 1
    if args.repeat > 0:
        return run_repeat(binary, args)
    return run_once(binary, args)


if __name__ == "__main__":
    sys.exit(main())
