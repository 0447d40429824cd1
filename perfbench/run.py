#!/usr/bin/env python3
"""Builds and runs the xptc repository benchmark described in BENCHMARK.json.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds the
library and the benchmark binary (RelWithDebInfo, the repository's default
optimized build) under $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench; later runs rebuild incrementally. Build output goes
to stderr; stdout carries only the benchmark's own output, whose last line
is the result object. Exits non-zero without a result when the build fails,
for example when the xptc sources are not next to perfbench/.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out_dir):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        sys.stderr.write("error: xptc sources (CMakeLists.txt, src/) not found next to perfbench/\n")
        return False
    steps = []
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out_dir, "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.stderr.write("error: build step failed: %s\n" % " ".join(cmd))
            return False
    return True


def main():
    out_dir = build_dir()
    if not build(out_dir):
        return 1
    binary = os.path.join(out_dir, "xptc_perfbench")
    sys.stdout.flush()
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
