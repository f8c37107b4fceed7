#!/usr/bin/env python3
"""Builds the Trusted Server benchmark from the repository's sources and
runs one workload (see README.md).

    python3 tsbench/run.py --workload commuter-serial --seed 1 \
        --seconds 20 --trace 0
    python3 tsbench/run.py --selftest      # the output checks' own tests

Run it from the root of the repository.  The build goes to
$CARGO_TARGET_DIR/tsbench (default .bench_build/tsbench), outputs (trace
files) to tsbench-out/.  The last line of standard output is the result
JSON; the exit code is the benchmark's (0 = every output check passed).
Without the program's sources it exits non-zero and prints no result.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(target):
    """Configures (once) and builds `target`; returns its path or None."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt"))):
        print("tsbench: the program's sources are not here", file=sys.stderr)
        return None
    build_dir = os.path.join(
        os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build")),
        "tsbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if subprocess.call(["cmake", "--build", build_dir, "-j", jobs,
                        "--target", target], stdout=sys.stderr) != 0:
        return None
    return os.path.join(build_dir, target)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", default="1")
    parser.add_argument("--seconds", default="20")
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if args.selftest:
        binary = build("tsbench_checks_test")
        return 3 if binary is None else subprocess.call([binary])
    if not args.workload:
        parser.error("--workload is required")
    binary = build("tsbench")
    if binary is None:
        return 3
    # The benchmark's stdout (whose last line is the result) passes through.
    return subprocess.call([binary, "--workload", args.workload,
                            "--seed", args.seed, "--seconds", args.seconds,
                            "--trace", args.trace,
                            "--out-dir", os.path.join(os.getcwd(),
                                                      "tsbench-out")])


if __name__ == "__main__":
    sys.exit(main())
