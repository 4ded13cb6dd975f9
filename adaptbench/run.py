#!/usr/bin/env python3
"""Build and run the adaptation-pipeline benchmark.

    python3 adaptbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Configures and builds adaptbench/ (which
compiles the platform from src/) into .bench_build/adaptbench, runs the
benchmark's arithmetic self-test, then the benchmark itself. Build output
goes to stderr; the benchmark's JSON result is the last line of stdout.
Exits non-zero, printing no result, if the build, the self-test or the run
fails. With --trace 1 the benchmark's spans are written next to the build.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def jobs():
    try:
        return max(1, min(len(os.sched_getaffinity(0)), os.cpu_count() or 1))
    except AttributeError:
        return os.cpu_count() or 1


def step(cmd, **kw):
    """Run a build step, its output sent to stderr; False on failure."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, **kw).returncode == 0
    except OSError as e:
        print(f"run.py: {cmd[0]}: {e}", file=sys.stderr)
        return False


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()

    build = os.path.join(ROOT, ".bench_build", "adaptbench")
    if not os.path.exists(os.path.join(build, "CMakeCache.txt")):
        if not step(["cmake", "-S", HERE, "-B", build, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]):
            return 1
    if not step(["cmake", "--build", build, "-j", str(jobs())]):
        return 1
    if not step([os.path.join(build, "adaptbench_selftest")]):
        return 1

    cmd = [os.path.join(build, "adaptbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        cmd += ["--trace-out",
                os.path.join(build, f"trace_{args.workload}_{args.seed}.json")]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        print(f"run.py: {args.workload} ran past {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    if run.returncode != 0:
        return run.returncode
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
