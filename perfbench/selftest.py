#!/usr/bin/env python3
"""Smoke-sized self-test of the repository benchmark.

    python3 perfbench/selftest.py [--seconds 2]

Run from the repository root. For every workload in BENCHMARK.json it runs
perfbench/run.py untraced and traced with one seed and short phases, and
checks that
  - both runs exit 0 and end with the result object,
  - the untraced run emits exactly the end_to_end metrics and the traced
    run exactly the per_layer metrics, each with its unit,
  - every end-to-end value is positive,
  - the traced and untraced runs report the same answer digest,
  - no request failed,
  - every traced wire request was joined to its server trace, and
  - the traced run's layer self times cover the end-to-end time measured
    without spans (the sum check: trace.coverage within 10% of 1).
It also checks that the benchmark exits non-zero, without a result line, in
a directory that holds only BENCHMARK.json and perfbench/.
Exits 0 when every check passes.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seconds, trace, cwd=ROOT):
    cmd = ["python3", os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", "11", "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=900)
    return proc


def parse(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def check_metrics(result, expected, label, errors):
    got = result["metrics"]
    if set(got) != {m["name"] for m in expected}:
        missing = sorted({m["name"] for m in expected} - set(got))
        extra = sorted(set(got) - {m["name"] for m in expected})
        errors.append("%s: metric set differs; missing %s, extra %s" % (label, missing, extra))
    for m in expected:
        value = got.get(m["name"])
        if value is None:
            continue
        if value.get("unit") != m["unit"]:
            errors.append("%s: %s has unit %r, want %r" % (label, m["name"], value.get("unit"), m["unit"]))
        if not isinstance(value.get("value"), (int, float)) or not math.isfinite(value["value"]):
            errors.append("%s: %s is not a finite number" % (label, m["name"]))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seconds", type=float, default=2)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    errors = []
    for workload in [w["name"] for w in spec["workloads"]]:
        runs = {}
        for trace in (0, 1):
            proc = run(workload, args.seconds, trace)
            label = "%s --trace %d" % (workload, trace)
            if proc.returncode != 0:
                errors.append("%s: exit %d: %s" % (label, proc.returncode, proc.stderr[-400:]))
                continue
            context, result = parse(proc)
            runs[trace] = (context, result)
            check_metrics(result, spec["per_layer" if trace else "end_to_end"], label, errors)
            if result["failed"] != 0:
                errors.append("%s: %d of %d requests failed" % (label, result["failed"], result["attempted"]))
            print("ok   %s: %d attempted, %d failed" % (label, result["attempted"], result["failed"]))
        if len(runs) < 2:
            continue
        untraced, traced = runs[0][1]["metrics"], runs[1][1]["metrics"]
        for m in spec["end_to_end"]:
            if m["name"] in untraced and not untraced[m["name"]]["value"] > 0:
                errors.append("%s: end-to-end %s is not positive" % (workload, m["name"]))
        if runs[0][0].get("answer_hash") != runs[1][0].get("answer_hash"):
            errors.append("%s: traced and untraced answer digests differ" % workload)
        if traced.get("diag.fail_frac", {}).get("value") != 0:
            errors.append("%s: diag.fail_frac is not 0" % workload)
        if runs[1][0].get("unmatched_traces", 0) != 0:
            errors.append("%s: %d traced requests have no server trace" % (workload, runs[1][0]["unmatched_traces"]))
        coverage = traced.get("trace.coverage", {}).get("value", 0)
        if abs(coverage - 1) > 0.10 or traced.get("trace.sum_check_ok", {}).get("value") != 1:
            errors.append("%s: trace.coverage %.3f is outside 1 +- 0.10" % (workload, coverage))

    # Without the xptc sources next to it, the benchmark must fail cleanly.
    bare = os.path.join(ROOT, ".bench_build", "selftest_bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(spec["workloads"][0]["name"], args.seconds, 0, cwd=bare)
    if proc.returncode == 0 or proc.stdout.strip():
        errors.append("bare directory: want a non-zero exit and no output, got exit %d" % proc.returncode)
    else:
        print("ok   bare directory: exit %d, no result" % proc.returncode)
    shutil.rmtree(bare, ignore_errors=True)

    for e in errors:
        print("FAIL " + e)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
