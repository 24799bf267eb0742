#!/usr/bin/env python3
"""End-to-end benchmark entry point.

    python3 sssp_bench/run.py --workload road|powerlaw|service \
        --seed N --seconds S --trace 0|1
    python3 sssp_bench/run.py --selftest

Run from the repository root. The first call configures and builds the
library and the benchmark from source (Release) into
.bench_build/sssp_bench; later calls rebuild only what changed. Every run
first executes the checker self-test, then the workload, and prints the
workload's result as the last line of standard output:

    {"correct": true, "attempted": N, "failed": N, "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
records spans (written to .bench_out/spans-<workload>-<seed>.jsonl) and
reports the per-layer metrics, with 0 for a layer the workload does not
reach. Build logs and progress go to standard error.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "sssp_bench")
OUT = os.path.join(ROOT, ".bench_out")
BENCH_TIMEOUT_S = 170


def log(msg):
    print(f"[sssp_bench] {msg}", file=sys.stderr, flush=True)


def run_quiet(cmd, timeout=None):
    """Runs cmd with its output sent to stderr; returns the exit code."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout).returncode
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"{cmd[0]}: {e}")
        return 1


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        if run_quiet(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"]) != 0:
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    return run_quiet(["cmake", "--build", BUILD, "-j", jobs]) == 0


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["end_to_end"], spec["per_layer"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=["road", "powerlaw", "service"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run only the checker self-test")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")

    if not build():
        log("build failed")
        return 1
    if run_quiet([os.path.join(BUILD, "checker_selftest")], timeout=120) != 0:
        log("checker self-test failed: the oracle cannot be trusted")
        return 1
    if args.selftest:
        return 0

    end_to_end, per_layer = declared_metrics()
    wanted = per_layer if args.trace else end_to_end
    os.makedirs(OUT, exist_ok=True)
    cmd = [os.path.join(BUILD, "sssp_bench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--spans",
           os.path.join(OUT, f"spans-{args.workload}-{args.seed}.jsonl")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=BENCH_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {BENCH_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"sssp_bench exited with code {proc.returncode}")
        return 1
    result = json.loads(lines[-1])

    metrics = result["metrics"]
    unknown = sorted(set(metrics) - {m["name"] for m in wanted})
    if unknown:
        log(f"metrics not declared in BENCHMARK.json: {unknown}")
        return 1
    for m in wanted:
        if m["name"] in metrics:
            continue
        if not args.trace:
            log(f"end-to-end metric {m['name']} missing")
            return 1
        # A layer this workload never calls into did no work.
        metrics[m["name"]] = {"value": 0, "unit": m["unit"]}
    result["metrics"] = {m["name"]: metrics[m["name"]] for m in wanted}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
