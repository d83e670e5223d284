#!/usr/bin/env python3
"""End-to-end experiment benchmark for qedm.

Run from the repository root:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --self-test

The first call builds perfbench/ (a CMake package that compiles the qedm
libraries from src/) into .bench_build/perfbench in Release mode; later
calls rebuild only what changed. The program then generates the
workload's inputs from --seed and runs them through core::runExperiment:

  --trace 0  end-to-end metrics (wall_s, setup_s, peak_rss_mb), measured
             with tracing off, plus output checks;
  --trace 1  the traced run: a serial replay of every round through the
             public layer calls, one span per call, giving the per-layer
             metrics; writes Chrome trace-event JSON to
             .bench_build/traces/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; failed / attempted is the
failed_frac the readable report above it prints. The exit code is 0
only when every output check passed.

--self-test runs every workload at one round and a tiny budget with all
checks (it must pass), then again with the reference bands shifted off
the true values (it must fail).

This benchmark is the end-to-end authority that performance claims
name. The perf_micro per_cal rows in bench/ stay kernel-level guards;
BENCH_runtime.json is not used (its jobs=8 row exceeds a 4-core host).
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "qedm_perfbench")
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 850


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("qedm sources (src/) not found next to perfbench/")
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "--target", "qedm_perfbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as exc:
            log(f"build step failed: {exc}")
            return False
        if done.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            return False
    return True


def run(args):
    """Run the benchmark program (stdout passes through); its exit code."""
    try:
        return subprocess.run([BINARY] + args, timeout=RUN_TIMEOUT_S,
                              cwd=ROOT).returncode
    except subprocess.TimeoutExpired:
        log(f"benchmark program exceeded {RUN_TIMEOUT_S} s")
        return 1


def self_test(work_dir):
    journal = ["--journal", os.path.join(work_dir, "self-test.journal"),
               "--trace-out", os.path.join(work_dir, "self-test")]
    if run(["--smoke"] + journal) != 0:
        log("self-test: smoke run failed")
        return 1
    if run(["--smoke", "--corrupt-band"] + journal) == 0:
        log("self-test: a corrupted reference band went unnoticed")
        return 1
    log("self-test passed: smoke run clean, corrupted band caught")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    opts = parser.parse_args()
    if not opts.self_test and opts.workload is None:
        parser.error("--workload is required")
    if not build():
        return 1

    work_dir = os.path.join(ROOT, ".bench_build", "run")
    traces = os.path.join(ROOT, ".bench_build", "traces")
    os.makedirs(work_dir, exist_ok=True)
    os.makedirs(traces, exist_ok=True)
    if opts.self_test:
        return self_test(work_dir)
    trace_out = os.path.join(
        traces, f"{opts.workload}-seed{opts.seed}.json")
    journal = os.path.join(work_dir, f"journal-{os.getpid()}")
    return run(["--workload", opts.workload, "--seed", str(opts.seed),
                "--seconds", str(opts.seconds), "--trace", str(opts.trace),
                "--trace-out", trace_out, "--journal", journal])


if __name__ == "__main__":
    sys.exit(main())
