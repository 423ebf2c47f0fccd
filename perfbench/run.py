#!/usr/bin/env python3
"""Builds infoleak and the perfbench program from source, then runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload hot-index --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --test     # build and run the benchmark's own tests

Workloads: hot-index, cold-refs, ingest-mix (see perfbench/src/workload.h).
Build trees go to $CARGO_TARGET_DIR (default .bench_build) under the
repository root: a Release build of the libraries, its install prefix, and
the program built against it. The last line of standard output is the
program's JSON result; build output goes to standard error. Exits non-zero,
printing no result, when the sources are missing, the build fails, or the
program fails or overruns its time limit.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
RUN_TIMEOUT_S = 170
JOBS = str(max(1, min(os.cpu_count() or 1, 4)))


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def run(cmd):
    """Runs a build step, sending its output to standard error."""
    done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        fail("build step failed: " + " ".join(cmd))


def build(build_root):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        fail("no infoleak sources next to perfbench/ (need CMakeLists.txt and src/)")
    libs = os.path.join(build_root, "infoleak-release")
    prefix = os.path.join(build_root, "infoleak-prefix")
    bench = os.path.join(build_root, "perfbench")
    if not os.path.isfile(os.path.join(libs, "CMakeCache.txt")):
        run(["cmake", "-S", ROOT, "-B", libs, "-DCMAKE_BUILD_TYPE=Release",
             "-DCMAKE_INSTALL_LIBDIR=lib", "-DINFOLEAK_BUILD_TESTS=OFF",
             "-DINFOLEAK_BUILD_BENCHMARKS=OFF", "-DINFOLEAK_BUILD_EXAMPLES=OFF"])
    run(["cmake", "--build", libs, "-j", JOBS])
    run(["cmake", "--install", libs, "--prefix", prefix])
    if not os.path.isfile(os.path.join(bench, "CMakeCache.txt")):
        run(["cmake", "-S", HERE, "-B", bench, "-DCMAKE_BUILD_TYPE=Release",
             "-DINFOLEAK_PREFIX=" + prefix])
    run(["cmake", "--build", bench, "-j", JOBS])
    return bench


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, when it is present."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--test", action="store_true")
    args = parser.parse_args()
    if not args.test and not args.workload:
        parser.error("--workload is required")

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_root):
        build_root = os.path.join(ROOT, build_root)
    bench = build(build_root)

    if args.test:
        done = subprocess.run(["ctest", "--output-on-failure"], cwd=bench)
        sys.exit(done.returncode)

    work = os.path.join(build_root, "work-%d" % os.getpid())
    cmd = [os.path.join(bench, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--work-dir", work,
           "--out", os.path.join(build_root, "out")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("perfbench exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        result = None
    if done.returncode != 0 or not isinstance(result, dict):
        sys.stderr.write(done.stdout)
        fail("perfbench exited with %d and no result" % done.returncode)
    want = expected_metrics(args.trace)
    if want is not None and set(result["metrics"]) != want:
        sys.stderr.write(done.stdout)
        fail("metrics differ from BENCHMARK.json: %s" %
             sorted(set(result["metrics"]) ^ want))
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
