#!/usr/bin/env python3
"""Campaign benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the repository's `ldp` library and the
campaign binary (perfbench/campaign.cc) in Release mode under
$CARGO_TARGET_DIR (default .bench_build), runs one workload and prints the
binary's stamp line and, as the last line, its result object
{"correct", "attempted", "failed", "metrics"}. With --trace 1 the metrics are
the per-layer ones and the spans of the last traced campaign are written to
<build dir>/traces/<workload>.spans.jsonl.

The metric names the binary prints must be exactly the ones BENCHMARK.json
lists for the mode; anything else is a benchmark bug and fails the run.
Exits non-zero, printing no result, when the build or the run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures once, then (re)builds the binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not \
            os.path.isdir(os.path.join(ROOT, "src")):
        fail("no library sources next to perfbench/ (run from a checkout)")
    cmake_dir = os.path.join(build_dir(), "cmake")
    steps = []
    if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", cmake_dir, "-j", str(os.cpu_count() or 1),
                  "--target", "perfbench_campaign"])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as error:
            fail("build step %s failed: %s" % (step[:2], error))
        if done.returncode != 0:
            fail("build step %s exited %d" % (step[:2], done.returncode))
    return os.path.join(cmake_dir, "perfbench_campaign")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def check_result(line, trace):
    """Parses the binary's result line and checks it against BENCHMARK.json;
    raises ValueError on any mismatch."""
    result = json.loads(line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise ValueError("result keys %s" % sorted(result))
    if result["correct"] is not True:
        raise ValueError("the correctness gate failed")
    want = expected_metrics(trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        raise ValueError("metrics differ from BENCHMARK.json: missing %s, "
                         "extra %s" % (sorted(set(want) - set(got)),
                                       sorted(set(got) - set(want))))
    return result


def run_binary(binary, args):
    """Runs the binary in a fresh work dir; returns (exit code, stdout)."""
    work = os.path.join(build_dir(), "run-%d" % os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", work]
    if args.trace:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out",
                    os.path.join(traces, args.workload + ".spans.jsonl")]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              stderr=sys.stderr, timeout=RUN_TIMEOUT_S,
                              universal_newlines=True)
        return done.returncode, done.stdout
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    started = time.time()
    code, out = run_binary(binary, args)
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        fail("campaign binary exited %d after %.1f s" % (
            code, time.time() - started))
    try:
        check_result(lines[-1], args.trace == 1)
    except ValueError as error:
        fail(str(error))
    print("\n".join(lines))
    sys.stdout.flush()


if __name__ == "__main__":
    main()
