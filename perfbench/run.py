#!/usr/bin/env python3
"""Builds and runs the Ode end-to-end trigger-transaction benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload credcard-durable --seed 1 \
        --seconds 10 --trace 0

The first run configures and builds the library and ode_perfbench from
source into .bench_build/perfbench (Release). Each run then executes one
workload; the last stdout line is ode_perfbench's JSON result. Databases go
to a scratch directory under the build tree and are removed afterwards;
a traced run (--trace 1) also leaves its Chrome trace there, as
traces/<workload>.json (the latest run of each workload).
See perfbench/DESIGN.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("credcard-durable", "trading-mm", "statement-read")
BUILD_DIR = os.path.join(".bench_build", "perfbench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def run(cmd, timeout, capture):
    """Runs cmd in its own process group; on timeout kills the whole
    group and waits for it. Returns (returncode, stdout) or None on
    timeout."""
    proc = subprocess.Popen(
        cmd,
        stdout=subprocess.PIPE if capture else sys.stderr,
        stderr=sys.stderr,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None
    return proc.returncode, out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be >= 1 and --seed >= 0")

    root = os.getcwd()
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        print("perfbench: run from the repository root; src/ not found",
              file=sys.stderr)
        return 2
    if shutil.which("cmake") is None:
        print("perfbench: cmake not found", file=sys.stderr)
        return 2

    build = os.path.join(root, BUILD_DIR)
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (
        ["cmake", "-S", bench_dir, "-B", build, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build, "-j", jobs],
    ):
        result = run(cmd, BUILD_TIMEOUT_S, capture=False)
        if result is None or result[0] != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 2

    workdir = os.path.join(build, "work", "%s-%d-%d" % (
        args.workload, args.seed, os.getpid()))
    cmd = [
        os.path.join(build, "ode_perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--workdir", workdir,
    ]
    if args.trace:
        cmd += ["--trace-file", os.path.join(
            build, "traces", args.workload + ".json")]
    try:
        result = run(cmd, RUN_TIMEOUT_S, capture=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if result is None:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    code, out = result
    sys.stdout.write(out)
    sys.stdout.flush()
    lines = out.strip().splitlines()
    try:
        last = json.loads(lines[-1]) if lines else None
    except ValueError:
        last = None
    if code == 0 and (not isinstance(last, dict) or
                      set(last) != {"correct", "attempted", "failed",
                                    "metrics"}):
        print("perfbench: ode_perfbench printed no result line",
              file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
