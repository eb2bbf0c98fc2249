#!/usr/bin/env python3
"""Builds the Vista benchmark from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The build tree, spill files, temporaries
and trace output live under .bench_build/ in the checkout. Build output goes
to stderr; the benchmark's last stdout line is its JSON result.
"""

import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(WORK, "perfbench")
BINARY = os.path.join(BUILD, "vista_perfbench")
# Compiler and program temporaries stay inside the checkout too.
TMPDIR = os.path.join(WORK, "tmp")
ENV = dict(os.environ, TMPDIR=TMPDIR)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("error: no Vista sources next to perfbench/; run from a "
                 "full checkout")
    os.makedirs(TMPDIR, exist_ok=True)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                        "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
                       + generator, check=True, stdout=sys.stderr, env=ENV)
    subprocess.run(["cmake", "--build", BUILD, "--target", "vista_perfbench",
                    "-j", "4"], check=True, stdout=sys.stderr, env=ENV)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=["alexnet_full_fp32", "amazon_spill",
                                 "serve_int8"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        sys.exit(f"error: build failed: {err}")
    scratch = os.path.join(WORK, f"run-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    try:
        result = subprocess.run(
            [BINARY, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--scratch-dir", scratch, "--trace-out",
             os.path.join(WORK, f"trace-{args.workload}-{args.seed}.jsonl")],
            cwd=ROOT, env=ENV, timeout=170, check=False)
    except subprocess.TimeoutExpired:
        sys.exit("error: benchmark timed out")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
