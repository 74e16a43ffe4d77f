#!/usr/bin/env python3
"""Self-tests of the session benchmark, at a small scale.

    python3 perfbench/test_repeat.py

1. Exact repeat: with one seed and one session in flight, every count-type
   per-layer metric of the traced run repeats exactly across two runs, on
   every workload.
2. Seeds drive the inputs: the same seed gives the same input fingerprint,
   a different seed a different one.
3. The output check bites: a run whose expected goals are unreachable, and
   a run whose requests all miss their deadline (truncated), each report
   "correct": false and exit non-zero.

Exits 0 when every check passes.
"""

import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SMALL = ["--movies", "300", "--in-flight", "1", "--setups", "1",
         "--seconds", "1"]

# Counts the program makes; they must not depend on timing.
COUNT_METRICS = [
    "text.probes_per_search",
    "text.memo_hit_ratio",
    "text.candidates_per_probe",
    "text.kernel_merges_per_search",
    "text.shard_subprobes_per_probe",
    "core.complete_tuple_paths_per_search",
    "core.valid_per_complete",
    "core.truncated_ratio",
    "core.samples_per_session",
    "query.path_queries_per_search",
    "query.tuple_paths_per_query",
    "graph.pairwise_mappings_per_search",
    "service.cache_hit_ratio",
    "catalog.shards_touched_per_update",
    "catalog.shards_rebuilt_per_publish",
]


def run_bench(binary, workload, seed, extra):
    proc = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed)] + SMALL + extra,
        stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else None
    fingerprint = next((l.split("inputs ")[-1] for l in lines
                        if "inputs " in l), None)
    return proc.returncode, result, fingerprint


def main():
    binary = run.build()
    if binary is None:
        print("FAIL: build")
        return 1
    failures = []

    for workload in run.WORKLOADS:
        sessions = "80" if workload.endswith("churn") else "40"
        traced = ["--trace", "1", "--trace-sessions", sessions]
        first = run_bench(binary, workload, 7, traced)
        second = run_bench(binary, workload, 7, traced)
        for code, result, _ in (first, second):
            if code != 0 or result is None or not result["correct"]:
                failures.append("%s: traced run failed" % workload)
        if first[1] is None or second[1] is None:
            continue
        for name in COUNT_METRICS:
            a = first[1]["metrics"][name]["value"]
            b = second[1]["metrics"][name]["value"]
            status = "ok" if a == b else "DIFFERS"
            print("%-14s %-40s %14.6f %14.6f %s" % (workload, name, a, b,
                                                    status))
            if a != b:
                failures.append("%s: %s %r != %r" % (workload, name, a, b))

    untraced = ["--trace", "0", "--rounds", "1"]
    _, _, fp7 = run_bench(binary, "cold-search", 7, untraced)
    _, _, fp7b = run_bench(binary, "cold-search", 7, untraced)
    code8, result8, fp8 = run_bench(binary, "cold-search", 8, untraced)
    print("inputs: seed 7 %s / %s, seed 8 %s" % (fp7, fp7b, fp8))
    if fp7 is None or fp7 != fp7b:
        failures.append("the same seed gave different inputs")
    if fp7 == fp8:
        failures.append("a different seed gave the same inputs")
    if code8 != 0 or result8 is None or not result8["correct"]:
        failures.append("untraced cold-search run failed")

    code, result, _ = run_bench(binary, "cold-search", 7,
                                untraced + ["--break-goal", "1"])
    print("broken goals: exit %d, correct %s" %
          (code, result and result["correct"]))
    if code == 0 or result is None or result["correct"]:
        failures.append("a wrong answer did not fail the run")

    for workload in ("cold-search", "update-churn"):
        code, result, _ = run_bench(binary, workload, 7,
                                    untraced + ["--break-requests", "1"])
        print("%s, requests past their deadline: exit %d, correct %s, "
              "failed %s" % (workload, code, result and result["correct"],
                             result and result["failed"]))
        if code == 0 or result is None or result["correct"] or \
                result["failed"] == 0:
            failures.append("%s: failed requests did not fail the run" %
                            workload)

    for failure in failures:
        print("FAIL:", failure)
    print("PASS" if not failures else "FAILED (%d)" % len(failures))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
