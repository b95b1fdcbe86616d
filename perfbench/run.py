#!/usr/bin/env python3
"""Build the LakeFed benchmark from source and run one workload.

    python3 perfbench/run.py --workload grid_nodelay --seed 1 \
        --seconds 30 --trace 0
    python3 perfbench/run.py --selftest   # build and run the helper tests

Run from the repository root. The engine (../src) and the benchmark
program (perfbench/src) are built in Release mode under
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench). The first run
configures and compiles; later runs only check that the build is up to
date. Build output goes to stderr.

The program's last stdout line is the result object; this script relays
stdout and checks that the last line carries exactly the metrics that
BENCHMARK.json declares for the chosen --trace mode. Any build, run or
check failure exits non-zero without printing a result.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("grid_nodelay", "grid_gamma3", "service_mix")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_checked(cmd, timeout, what):
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{what} timed out after {timeout} s")
    except OSError as err:
        fail(f"{what} could not start: {err}")
    if done.returncode != 0:
        fail(f"{what} failed with exit code {done.returncode}")


def build(target):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"LakeFed sources not found under {ROOT / 'src'}")
    target_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = ROOT / target_dir / "perfbench"
    if not (build_dir / "CMakeCache.txt").is_file():
        run_checked(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"],
                    BUILD_TIMEOUT_S, "cmake configure")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_checked(["cmake", "--build", str(build_dir), "--target", target,
                 "-j", jobs], BUILD_TIMEOUT_S, "build")
    return build_dir / target


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the helper unit tests")
    args = parser.parse_args()

    if args.selftest:
        test = build("perfbench_helpers_test")
        run_checked([str(test)], RUN_TIMEOUT_S, "helper tests")
        return
    if args.workload is None:
        parser.error("--workload is required")
    expected = declared_metrics(args.trace)
    program = build("lakefed_perfbench")
    cmd = [str(program), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--git-sha", git_sha()]
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark run timed out after {RUN_TIMEOUT_S} s")
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        fail(f"benchmark run failed with exit code {done.returncode}")
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail("benchmark printed no result line")
    got = set(result.get("metrics", {}))
    if got != expected:
        fail(f"metrics differ from BENCHMARK.json: missing "
             f"{sorted(expected - got)}, unexpected {sorted(got - expected)}")
    print(done.stdout, end="")


if __name__ == "__main__":
    main()
