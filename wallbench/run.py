#!/usr/bin/env python3
"""Builds and runs the wall-clock benchmark (see README.md).

    python3 wallbench/run.py --workload job --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The first run configures and builds the
engine library and the `wallbench` binary under `.bench_build/` (several
minutes); later runs only relink what changed. Build output goes to stderr.

The binary's stdout is passed through, so the last line is the JSON
result. Exits non-zero, without a result, when the engine sources are
missing or the build fails.
"""

import argparse
import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "wallbench")
WORK = os.path.join(BUILD_ROOT, "work")
BUILD_TIMEOUT_S = 850


def run_timeout_s(seconds, trace):
    """Set-up, checks and probes take a fixed margin; a traced run also
    repeats the timed phase with spans on."""
    return 90 + (2 if trace else 1) * 2 * seconds


def fail(msg):
    print("wallbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        fail("engine sources not found next to " + HERE)
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(BUILD_ROOT, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(
                ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            )
        steps.append(["cmake", "--build", BUILD, "--target", "wallbench", "-j", jobs])
        for cmd in steps:
            try:
                done = subprocess.run(
                    cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S
                )
            except (OSError, subprocess.TimeoutExpired) as e:
                fail("build step failed: %s" % e)
            if done.returncode != 0:
                fail("build step failed: " + " ".join(cmd))
    return os.path.join(BUILD, "wallbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["job", "server-mix"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    binary = build()
    os.makedirs(WORK, exist_ok=True)
    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--work-dir", WORK,
    ]
    timeout = run_timeout_s(args.seconds, args.trace)
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % timeout)
    sys.stdout.write(done.stdout.decode())
    sys.stdout.flush()
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
