#!/usr/bin/env python3
"""Builds and runs the VQE benchmark.

    python3 vqebench/run.py --workload ingest|experiment|serve|query \\
        --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds the
program's libraries and the `vqe_bench` binary (Release) into the build
directory named by $CARGO_TARGET_DIR, or `.bench_build`; later calls only
rebuild what changed. The binary's output is passed through; its last line
is one JSON object with `correct`, `attempted`, `failed` and `metrics`.
The metric names and units are checked against BENCHMARK.json. Exits
non-zero when the build fails, an output is wrong, or the metric set does
not match.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print("vqebench: " + message, file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, timeout):
    """Runs a build step; its output goes to stderr only on failure."""
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, timeout=timeout,
                              check=False)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd))
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout.decode(errors="replace")[-8000:])
        fail("failed: " + " ".join(cmd))


def build(build_dir):
    jobs = str(max(1, os.cpu_count() or 1))
    run_logged(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    run_logged(["cmake", "--build", build_dir, "--target", "vqe_bench",
                "-j", jobs], BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "vqe_bench")


def expected_metrics(trace):
    path = os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")
    with open(path, encoding="utf-8") as f:
        spec = json.load(f)
    rows = spec["per_layer"] if trace else spec["end_to_end"]
    return {row["name"]: row["unit"] for row in rows}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=["ingest", "experiment", "serve", "query"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    binary = build(build_dir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--digests", os.path.join(BENCH_DIR, "digests.txt")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
                              check=False)
    except subprocess.TimeoutExpired:
        fail("benchmark run timed out")
    out = proc.stdout.decode(errors="replace")
    sys.stdout.write(out)
    sys.stdout.flush()
    lines = out.strip().splitlines()
    if not lines:
        fail("benchmark printed no result")
    result = json.loads(lines[-1])
    want = expected_metrics(bool(args.trace))
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        fail("metric set differs from BENCHMARK.json: %s" %
             sorted(set(got.items()) ^ set(want.items())))
    if proc.returncode != 0 or not result["correct"]:
        fail("outputs are not correct (exit code %d)" % proc.returncode)
    return 0


if __name__ == "__main__":
    sys.exit(main())
