#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload fig5-cold --seed 1 --seconds 10 --trace 0

Workloads: fig5-cold, serve-zipf, update-mix (see perfbench/README.md).
The engine and the benchmark binary are compiled from this checkout into
.bench_build/perfbench/build (Release); later runs rebuild only what
changed. The binary's output is passed through; its last line is the JSON
result. The exit code is non-zero when the build fails, the run fails, or
any answer was wrong.
"""

import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BUILD_DIR = os.path.join(OUT_DIR, "build")
WORKLOADS = ("fig5-cold", "serve-zipf", "update-mix")
# A run's own limit; the first run of a checkout also pays for the build.
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build(target="perfbench"):
    """Configures (once) and builds `target`; returns its path or None."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", target,
                  "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr so stdout ends with the result line.
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                          stderr=sys.stderr).returncode != 0:
            log("build failed: " + " ".join(step))
            return None
    return os.path.join(BUILD_DIR, target)


def bench_env():
    """The environment minus the engine's VIEWJOIN_* knobs, so every run
    measures the same configuration."""
    return {k: v for k, v in os.environ.items()
            if not k.startswith("VIEWJOIN_")}


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--small", action="store_true",
                        help="tiny documents (for the benchmark's tests)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    binary = build()
    if binary is None:
        return 2

    work_dir = os.path.join(OUT_DIR, f"run-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir]
    if args.small:
        command.append("--small")
    try:
        completed = subprocess.run(command, cwd=ROOT, env=bench_env(),
                                   stdout=subprocess.PIPE,
                                   timeout=RUN_TIMEOUT_S)
        code = completed.returncode
        sys.stdout.write(completed.stdout.decode())
        sys.stdout.flush()
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        code = 3
    traces = os.path.join(OUT_DIR, "traces")
    for name in os.listdir(work_dir):
        if name.startswith("trace-"):
            os.makedirs(traces, exist_ok=True)
            os.replace(os.path.join(work_dir, name),
                       os.path.join(traces, f"{args.workload}-seed{args.seed}"
                                            f"-{name}"))
    shutil.rmtree(work_dir, ignore_errors=True)
    if code != 0:
        log(f"benchmark exited with {code}")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
