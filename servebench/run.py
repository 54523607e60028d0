#!/usr/bin/env python3
"""Builds and runs the KSpot serving benchmark.

    python3 servebench/run.py --workload floor --seed 1 --seconds 20 --trace 0

Run it from the repository root. The first run configures and builds the
driver and the kspot library (Release) under .bench_build/servebench; later
runs only rebuild what changed. The driver's table goes to stdout, and the last
stdout line is the result as one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`--trace 0` reports the end-to-end metrics and `--trace 1` the per-layer ones
(servebench/README.md describes both). Exits non-zero, without a result line,
when the build or the driver fails.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "servebench")
EXE = os.path.join(BUILD_DIR, "serve_bench")
WORKLOADS = ("floor", "churn", "dense")
DRIVER_TIMEOUT_S = 170


def log(msg):
    print(f"servebench: {msg}", file=sys.stderr, flush=True)


def cached_source_dir():
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    if not os.path.exists(cache):
        return None
    with open(cache, encoding="utf-8", errors="replace") as f:
        for line in f:
            if line.startswith("CMAKE_HOME_DIRECTORY:"):
                return line.split("=", 1)[1].strip()
    return None


def build():
    cached = cached_source_dir()
    if cached is not None and os.path.realpath(cached) != os.path.realpath(HERE):
        shutil.rmtree(BUILD_DIR)  # a build tree left by another checkout
    # Configure until a configure has generated the build system.
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeFiles", "Makefile.cmake")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD_DIR, "-G", "Unix Makefiles",
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                   stdout=sys.stderr, check=True)


def expected_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode, if it is present."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--deployment-seed", type=int, default=None,
                    help="DeploymentConfig seed (sensor data, tree, losses); default 1")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0 or (args.deployment_seed or 0) < 0:
        ap.error("seeds must be >= 0 and --seconds > 0")

    try:
        build()
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"build failed: {e}")
        return 1

    # The driver switches tracing itself; an inherited KSPOT_OBS would turn
    # it on for the untraced run.
    env = {k: v for k, v in os.environ.items() if k != "KSPOT_OBS"}
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.deployment_seed is not None:
        cmd += ["--deployment-seed", str(args.deployment_seed)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"driver did not finish within {DRIVER_TIMEOUT_S} s")
        return 1
    if proc.returncode != 0:
        log(f"driver exited with code {proc.returncode}")
        return 1

    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log("driver printed no result line")
        return 1
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log("result line has the wrong keys")
        return 1
    want = expected_metrics(args.trace)
    if want is not None and set(result["metrics"]) != want:
        log(f"metrics differ from BENCHMARK.json: {sorted(set(result['metrics']) ^ want)}")
        return 1

    for line in lines[:-1]:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
