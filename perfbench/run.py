#!/usr/bin/env python3
"""Builds the end-to-end benchmark from this checkout and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload dbp-serve-open --seed 1 \
        --seconds 20 --trace 0

The build tree lives in $CARGO_TARGET_DIR (default .bench_build) under the
current directory. Build output goes to stderr; the benchmark's own output,
whose last line is the JSON result, goes to stdout. Exits non-zero, without
a result, when the sources cannot be built.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# The benchmark itself stops well inside this; the guard only catches hangs.
RUN_TIMEOUT_S = 175


def build(build_dir):
    """Configures (once) and builds the benchmark; True on success."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    compile_cmd = ["cmake", "--build", build_dir, "-j", jobs,
                   "--target", "ppsm_perfbench"]
    return subprocess.run(compile_cmd, stdout=sys.stderr).returncode == 0


def main(argv):
    build_dir = os.path.abspath(
        os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                     "perfbench"))
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = list(argv)
    if "--trace-out" not in args and "--workload" in args:
        workload = args[args.index("--workload") + 1]
        args += ["--trace-out",
                 os.path.join(build_dir, "trace-%s.jsonl" % workload)]
    binary = os.path.join(build_dir, "ppsm_perfbench")
    try:
        return subprocess.run([binary] + args,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
