#!/usr/bin/env python3
"""Builds and runs the real-mode SHM platform benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

The first form runs one workload in its own process and passes its output
through; the last stdout line is the result JSON. `--trace 1` reports the
per-layer metrics of a traced run instead of the end-to-end metrics.
`--workload all` runs every workload untraced and traced, one process each,
and prints every metric with its unit.

The build (CMake, Release) goes to $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench; run data and span files go next to it.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ["ingest", "query_mix", "durable_scale"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(bench_dir, build_dir):
    """Configures (once) and builds the benchmark binary; returns its path."""
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", bench_dir, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"] + generator,
            check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "shm_perfbench",
         "-j", jobs],
        check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "shm_perfbench")


def run_one(binary, out_dir, workload, seed, seconds, trace):
    """Runs one workload in its own process; returns (stdout lines, code)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", out_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload}: timed out after {RUN_TIMEOUT_S} s")
        return [], 1
    return proc.stdout.splitlines(), proc.returncode


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    if not os.path.exists(os.path.join(root, "src", "shm", "platform.h")):
        log("library sources (src/) not found next to perfbench/")
        return 2
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(target, "perfbench", "build")
    out_dir = os.path.join(target, "perfbench", "run")
    try:
        binary = build(bench_dir, build_dir)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        log(f"build failed: {e}")
        return 1

    if args.workload != "all":
        lines, code = run_one(binary, out_dir, args.workload, args.seed,
                              args.seconds, args.trace)
        for line in lines:
            print(line)
        return code

    results = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            log(f"running {workload} (trace {trace})")
            lines, code = run_one(binary, out_dir, workload, args.seed,
                                  args.seconds, trace)
            if code != 0 or not lines:
                log(f"{workload} (trace {trace}) failed with code {code}")
                return 1
            result = json.loads(lines[-1])
            results.setdefault(workload, {})[trace] = result
            print(f"== {workload} ({'per-layer, traced' if trace else 'end-to-end'})"
                  f" correct={result['correct']} attempted={result['attempted']}"
                  f" failed={result['failed']}")
            for name, m in result["metrics"].items():
                print(f"  {name:34s} {m['value']:16.6f} {m['unit']}")
    ok = all(r[t]["correct"] for r in results.values() for t in r)
    print(json.dumps({"correct": ok, "results": results}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
