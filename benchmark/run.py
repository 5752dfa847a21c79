#!/usr/bin/env python3
"""Build and run the robustify benchmark for one workload.

Usage (from the repository root):

  python3 benchmark/run.py --workload {sort_adaptive,query_mix}
                           --seed N --seconds S --trace {0,1}

Builds benchmark/ (which compiles the library from the repository's own
sources) into .bench_build/, runs one workload for S seconds, and prints its
metrics.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  A traced run also leaves
trace.json (Chrome trace events, checked with tools/trace_validate.py) and
attribution.txt in .bench_build/runs/<workload>-seed<N>-trace1/.

Exit status: 0 when every operation and correctness check passed, 1 when any
failed, 2 when the benchmark could not be built or run at all.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sort_adaptive", "query_mix")
BUILD_TIMEOUT_S = 850
# A run measures for about --seconds, then finishes its checks; anything far
# past that is a hang.
RUN_GRACE_S = 120


def die(message):
    print("benchmark: " + message, file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    """Configures and builds the benchmark binary; returns its path.

    The configure step runs every time: it is cheap on an existing build
    tree, and it refreshes the build provenance (git SHA and status) that
    the library captures at configure time and each result reports.
    """
    cmake_dir = os.path.join(build_dir, "cmake")
    log_path = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, min(len(os.sched_getaffinity(0)), 4)))
    steps = [["cmake", "-S", HERE, "-B", cmake_dir, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", cmake_dir, "-j", jobs,
              "--target", "robustify_benchmark"]]
    with open(log_path, "w") as log:
        for step in steps:
            try:
                rc = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                die("build step %s failed: %s" % (step[:2], e))
            if rc != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                die("build failed (full log: %s)" % log_path)
    return os.path.join(cmake_dir, "robustify_benchmark")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        die("--seed must be >= 0 and --seconds > 0")
    for needed in ("CMakeLists.txt", "src", "tools/trace_validate.py",
                   "BENCHMARK.json"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            die("%s not found under %s: run from a full source checkout"
                % (needed, ROOT))

    build_dir = os.path.join(ROOT, ".bench_build")
    binary = build(build_dir)
    out_dir = os.path.join(build_dir, "runs", "%s-seed%d-trace%d"
                           % (args.workload, args.seed, args.trace))
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--out", out_dir]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=args.seconds + RUN_GRACE_S)
    except subprocess.TimeoutExpired:
        die("workload did not finish within %g s" % (args.seconds + RUN_GRACE_S))
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        die("benchmark binary exited with %d" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        die("benchmark binary printed no result line")
    for line in lines[:-1]:
        print(line)

    if set(result["metrics"]) != expected_metrics(args.trace):
        die("metrics %s do not match BENCHMARK.json" % sorted(result["metrics"]))
    if args.trace:
        # The traced run's span file must pass the repository's validator.
        trace_path = os.path.join(out_dir, "trace.json")
        rc = subprocess.run([sys.executable, os.path.join(ROOT, "tools",
                                                          "trace_validate.py"),
                             trace_path], stdout=sys.stderr).returncode
        result["attempted"] += 1
        if rc != 0:
            print("FAILED: %s does not validate" % trace_path, file=sys.stderr)
            result["failed"] += 1
            result["correct"] = False

    print(json.dumps(result))
    sys.stdout.flush()
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
