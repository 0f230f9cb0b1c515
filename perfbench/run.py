#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the ACT libraries and the perfbench program from this checkout
(Release, into $CARGO_TARGET_DIR or .bench_build), runs one workload and
prints its metrics; the last line of standard output is the JSON result.
With --trace 1 the exported span trace must also pass `actstat validate`.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fleet_tracker", "fleet_mem_ensemble", "diagnose", "simulate_fig8")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configure once, then build incrementally; build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("ACT sources (src/) not found next to perfbench/")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(8, os.cpu_count() or 1))
    command = ["cmake", "--build", build_dir, "-j", jobs,
               "--target", "perfbench", "actstat"]
    if subprocess.run(command, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this kind of run."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    build(build_dir)

    trace_file = os.path.join(build_dir, f"trace-{args.workload}.json")
    command = [os.path.join(build_dir, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--trace-file", trace_file]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    if run.returncode != 0:
        fail(f"perfbench exited with code {run.returncode}")
    lines = run.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])

    if set(result["metrics"]) != declared_metrics(args.trace):
        fail("reported metrics differ from BENCHMARK.json")
    if args.trace:
        validate = subprocess.run(
            [os.path.join(build_dir, "actstat"), "validate", trace_file],
            stdout=sys.stderr)
        result["attempted"] += 1
        if validate.returncode != 0:
            result["failed"] += 1
            result["correct"] = False

    print("\n".join(lines[:-1]))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
