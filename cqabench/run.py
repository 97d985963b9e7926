#!/usr/bin/env python3
"""Builds cqabench from source and runs one workload.

Usage (from the root of a checkout):

    python3 cqabench/run.py --workload tenant_reads --seed 1 --seconds 15 --trace 0

The build goes to .bench_build/cqabench (CMake, Release); build output goes
to standard error. The benchmark's own output goes to standard output, and
its last line is the JSON result. Exits non-zero, without a result, when
the build or the run fails.
"""

import argparse
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "cqabench")
BINARY = os.path.join(BUILD_DIR, "cqabench")
WORKLOADS = ("tenant_reads", "churn_wide", "sat_gadgets")
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the benchmark; True on success."""
    # Compiler temporaries stay inside the checkout too.
    tmp = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    configured = any(os.path.exists(os.path.join(BUILD_DIR, f))
                     for f in ("build.ninja", "Makefile"))
    if not configured:
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"] + generator
        if subprocess.run(configure, stdout=sys.stderr,
                          env=env).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    result = subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                            stdout=sys.stderr, env=env)
    return result.returncode == 0 and os.path.exists(BINARY)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--plant-wrong-verdict", type=int, default=None,
                        help="flip the expected answer of the K-th solve "
                             "(checker self-test)")
    args = parser.parse_args()

    started = time.monotonic()
    if not build():
        print("cqabench: build failed", file=sys.stderr)
        return 1
    print("cqabench: build ready in %.1f s" % (time.monotonic() - started),
          file=sys.stderr)

    work_dir = os.path.join(BUILD_DIR, "work", args.workload)
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir]
    if args.plant_wrong_verdict is not None:
        command += ["--plant-wrong-verdict", str(args.plant_wrong_verdict)]
    sys.stdout.flush()
    try:
        result = subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("cqabench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
