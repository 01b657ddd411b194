#!/usr/bin/env python3
"""Build and run the qcached wire benchmark (see README.md beside this file).

    python3 perfbench/run.py --workload hit_heavy --seed 1 --seconds 10 --trace 0

Run from the repository root. The first call configures and builds the
benchmark package (this directory's CMakeLists.txt, which compiles ../src,
../tools/qcached and the load generator) under $CARGO_TARGET_DIR, default
.bench_build; later calls rebuild incrementally. The generator's report goes
to stdout and its last line is the JSON result; build output goes to stderr.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build(build_dir):
    perf_build = os.path.join(build_dir, "perfbench")
    if not os.path.exists(os.path.join(perf_build, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", perf_build, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", perf_build, "--target", "qcbench", "qcached", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return perf_build


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    # The benchmark builds the program from the checkout's sources; without
    # them there is nothing to measure.
    for needed in ("src/CMakeLists.txt", "tools/qcached.cc"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            log(f"run.py: {needed} is missing; run from a full checkout of the repository")
            return 2

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        perf_build = build(build_dir)
    except subprocess.CalledProcessError as e:
        log(f"run.py: build failed ({e})")
        return 2

    cmd = [os.path.join(perf_build, "qcbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--qcached", os.path.join(perf_build, "qc_tools", "qcached"),
           "--workdir", os.path.join(build_dir, "perfbench-runs")]
    try:
        # qcbench's qcached children are killed with it (PR_SET_PDEATHSIG).
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log(f"run.py: qcbench did not finish within {RUN_TIMEOUT_S} s")
        return 3


if __name__ == "__main__":
    sys.exit(main())
