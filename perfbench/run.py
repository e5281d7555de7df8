#!/usr/bin/env python3
"""Build and run the ifsyn pipeline benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload flc_sweep --seed 1 --seconds 20 \
        --trace 0
    python3 perfbench/run.py --test

The first call configures and builds perfbench/ (which compiles ../src)
into .bench_build/perfbench; later calls rebuild only what changed. The
binary's report is passed through, and the last line printed is one JSON
object with "correct", "attempted", "failed" and "metrics": every
end_to_end metric of BENCHMARK.json with --trace 0, every per_layer metric
with --trace 1 (0 for a layer the workload never calls). The traced run
also writes its spans to .bench_build/traces/.
"""
import argparse
import json
import os
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
TIME_LIMIT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no ifsyn sources at src/: run from a checkout of the repository")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr so stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))


def run(cmd, deadline):
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=max(1, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("run exceeded %d s" % TIME_LIMIT_S)
    return proc.returncode, out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--test", action="store_true",
                        help="build and run the benchmark's unit tests")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    build()
    # The first call in a checkout also builds; the limit is for the run.
    deadline = time.monotonic() + TIME_LIMIT_S

    if args.test:
        code, out = run([os.path.join(BUILD_DIR, "perfbench_test")], deadline)
        sys.stdout.write(out)
        sys.exit(code)

    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names or args.seed is None or \
            args.seconds is None or args.trace is None:
        fail("need --workload {%s} --seed N --seconds S --trace 0|1"
             % ",".join(names))
    trace_dir = os.path.join(ROOT, ".bench_build", "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [os.path.join(BUILD_DIR, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-file", os.path.join(
            trace_dir, "%s-%d.json" % (args.workload, args.seed))]
    code, out = run(cmd, deadline)
    lines = out.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    try:
        raw = json.loads(lines[-1])
    except ValueError:
        fail("no result line (exit %d)" % code)
    if code != 0 or not raw["correct"]:
        fail("output checks failed (exit %d)" % code)

    declared = {m["name"]: m["unit"]
                for m in spec["end_to_end"] + spec["per_layer"]}
    unknown = sorted(set(raw["metrics"]) - set(declared))
    if unknown:
        fail("metrics missing from BENCHMARK.json: " + ", ".join(unknown))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] in raw["metrics"]:
            value = raw["metrics"][m["name"]]
        elif args.trace:
            value = 0  # a layer this workload never calls
        else:
            fail("workload did not measure " + m["name"])
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    print(json.dumps({"correct": True, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
