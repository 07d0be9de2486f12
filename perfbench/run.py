#!/usr/bin/env python3
"""Builds and runs the eblocks end-to-end benchmark.

Usage (from the repository root):
  python3 perfbench/run.py --workload table1|search|served|all \
      --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --selftest

The first run configures and builds perfbench/ (which compiles the library
from src/) in .bench_build/perfbench with CMake in Release mode; later runs
rebuild incrementally.  Build output goes to stderr.  The benchmark's
stdout is passed through, so its last line is the result JSON, except
that in untraced runs setup_s becomes the median over seven processes
(six of them only set up: three before the measuring one, three after).  With --workload all, each workload runs in
turn and the exit status is nonzero if any of them failed.  Traced runs
write their spans to .bench_build/spans-<workload>-<seed>.json.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("table1", "search", "served")
SETUP_PROCESSES = 7
# A run may take its --seconds twice over (table1's traced run adds a
# served phase, and the output checks follow) plus this margin.
TIMEOUT_MARGIN_S = 60


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no library sources (src/) next to perfbench/",
              file=sys.stderr)
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target", target])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def run_binary(cmd, deadline, capture=False):
    """Runs cmd until the run's deadline; None when it timed out."""
    sys.stdout.flush()
    try:
        return subprocess.run(
            cmd, cwd=ROOT, timeout=max(1.0, deadline - time.monotonic()),
            stdout=subprocess.PIPE if capture else None, text=capture)
    except subprocess.TimeoutExpired:
        print("perfbench: %s timed out" % cmd[2], file=sys.stderr)
        return None


def run_workload(args, workload):
    deadline = time.monotonic() + 2 * args.seconds + TIMEOUT_MARGIN_S
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", os.path.join(
            ROOT, ".bench_build", "spans-%s-%d.json" % (workload, args.seed))]
        done = run_binary(cmd, deadline)
        return 3 if done is None else done.returncode

    # Set-up is timed once per process, from process start, so that
    # one-time work (static tables, first-use allocation) shows in every
    # sample; setup_s is the median over several processes, half of them
    # before the measuring one and half after, so that a slow stretch of
    # the host around the start of the run does not decide it.
    setups = []

    def set_up_alone():
        """Times one process that only sets up; its exit status."""
        done = run_binary(cmd + ["--setup-only", "1"], deadline, True)
        if done is None:
            return 3
        if done.returncode == 0:
            setups.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
        return done.returncode and 2

    half = (SETUP_PROCESSES - 1) // 2
    for _ in range(half):
        code = set_up_alone()
        if code:
            return code
    done = run_binary(cmd, deadline, True)
    if done is None:
        return 3
    for _ in range(half):
        code = set_up_alone()
        if code:
            return code
    lines = done.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
        setup = result["metrics"]["setup_s"]
    except (IndexError, ValueError, KeyError):
        sys.stdout.write(done.stdout)
        return done.returncode or 2
    setups.append(setup["value"])
    setup["value"] = statistics.median(setups)
    lines[-1] = json.dumps(result)
    lines.insert(-1, "setup_s over %d processes: median %.6g, min %.6g, "
                 "max %.6g s" % (len(setups), setup["value"], min(setups),
                                 max(setups)))
    print("\n".join(lines))
    return done.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if args.selftest:
        if not build("perfbench_selftest"):
            return 2
        return subprocess.run([os.path.join(BUILD, "perfbench_selftest")],
                              cwd=ROOT).returncode
    if args.workload is None:
        parser.error("--workload is required")
    if not build("perfbench"):
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    status = 0
    for workload in workloads:
        code = run_workload(args, workload)
        status = status or code
    return status


if __name__ == "__main__":
    sys.exit(main())
