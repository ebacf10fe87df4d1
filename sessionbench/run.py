#!/usr/bin/env python3
"""Builds the Session-path benchmark from source and runs one workload.

Usage, from the repository root:

    python3 sessionbench/run.py --workload single_ooo --seed 1 --seconds 10 --trace 0

The build directory is $CARGO_TARGET_DIR, or .bench_build when unset. The
first call configures and compiles the library and the benchmark binary
there; later calls only rebuild what changed. Build output goes to stderr,
so the last line of stdout is always the binary's JSON result. The traced
run (--trace 1) writes its spans to <build dir>/spans/.

Exits non-zero, without printing a result, when the build fails (for
example when the library sources are missing), and passes on the binary's
exit code otherwise.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_JOBS = min(4, os.cpu_count() or 1)


def build(build_dir):
    """Configures (once) and builds the benchmark binary; returns its path or None."""
    generated = ("build.ninja", "Makefile")
    if not any(os.path.exists(os.path.join(build_dir, f)) for f in generated):
        configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return None
    step = ["cmake", "--build", build_dir, "--target", "sessionbench", "-j", str(BUILD_JOBS)]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(build_dir, "sessionbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_dir)
    if binary is None:
        print("sessionbench: build failed", file=sys.stderr)
        return 2

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans_dir = os.path.join(build_dir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        command += ["--spans-out",
                    os.path.join(spans_dir, f"{args.workload}-seed{args.seed}.json")]
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
