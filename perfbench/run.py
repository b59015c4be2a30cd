#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload lidar_frame --seed 1 --seconds 30 --trace 0

Run it from the repository root. The first run configures and builds
perfbench/CMakeLists.txt into $CARGO_TARGET_DIR (default .bench_build);
later runs only rebuild what changed. Build output goes to stderr, so the
last line of stdout is the benchmark's JSON result. The benchmark loads the
committed zoo cache in upaq_zoo_cache and never trains.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("lidar_frame", "camera_frame", "lidar_stream")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("program sources not found at " + os.path.join(ROOT, "src"))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "upaq_perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "upaq_perfbench")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    cache = os.path.join(ROOT, "upaq_zoo_cache")
    if not os.path.isdir(cache):
        fail("zoo cache not found at " + cache)
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(build_dir)

    env = dict(os.environ)
    env.pop("UPAQ_TRACE", None)  # the benchmark switches tracing itself
    sys.stdout.flush()
    sys.stderr.flush()
    # exec: the benchmark replaces this process, so no child outlives it.
    os.execve(binary, [binary, "--workload", args.workload,
                       "--seed", str(args.seed),
                       "--seconds", repr(args.seconds),
                       "--trace", str(args.trace),
                       "--cache", cache], env)


if __name__ == "__main__":
    main()
