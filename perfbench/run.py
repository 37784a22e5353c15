#!/usr/bin/env python3
"""Builds the benchmark and runs one workload.

    python3 perfbench/run.py --workload serve|crawl|learn --seed N \
        --seconds S --trace 0|1

Run from anywhere inside a source checkout. The first run configures and
builds `perfbench` (the repository's libraries plus the C++ files in this
directory) into $CARGO_TARGET_DIR, default `.bench_build` at the checkout
root; later runs only check that the build is current. Generated inputs
live in a per-run directory under the build directory and are removed at
the end; a traced run leaves its spans in `<build>/traces/<workload>.jsonl`.

The last line of stdout is the JSON result. With --trace 0 its metrics are
the `end_to_end` metrics of BENCHMARK.json, with --trace 1 the `per_layer`
ones; a per-layer metric that the workload does not exercise is reported
as 0 and flagged on a human line. Any failure (build, correctness gate,
missing metric) exits non-zero without a result line.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve", "crawl", "learn")
# Workloads whose inputs are generated in a separate process first.
PREPARED = ("serve", "crawl")
# Generous limits that only stop a hung process: input generation, and a
# measured run (its --seconds plus set-up repetitions, gates and the
# warm-up).
PREPARE_TIMEOUT_S = 120
RUN_OVERHEAD_S = 140


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out):
    """Configures once, then brings the perfbench target up to date.

    Holds a lock on the build directory, so concurrent runs in one
    checkout build once."""
    def step(cmd):
        # Build chatter goes to stderr; stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("build step failed: " + " ".join(cmd))

    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not any(os.path.exists(os.path.join(out, f))
                   for f in ("build.ninja", "Makefile")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            step(["cmake", "-S", HERE, "-B", out,
                  "-DCMAKE_BUILD_TYPE=Release"] + generator)
        step(["cmake", "--build", out, "--target", "perfbench", "-j", "4"])
    return os.path.join(out, "perfbench")


def load_spec():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    spec = load_spec()
    wanted = spec["per_layer" if args.trace == "1" else "end_to_end"]

    out = build_dir()
    binary = build(out)
    work = os.path.join(out, "work", "%s-%d" % (args.workload, os.getpid()))
    traces = os.path.join(out, "traces")
    os.makedirs(traces, exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", repr(args.seconds), "--trace", args.trace,
              "--dir", work]
    if args.trace == "1":
        # One file per workload, overwritten by its next traced run.
        common += ["--trace-out",
                   os.path.join(traces, "%s.jsonl" % args.workload)]
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        if args.workload in PREPARED:
            prepared = subprocess.run([binary, "prepare"] + common,
                                      stdout=sys.stderr,
                                      timeout=PREPARE_TIMEOUT_S)
            if prepared.returncode != 0:
                fail("prepare failed (exit %d)" % prepared.returncode)
        ran = subprocess.run([binary, "run"] + common, stdout=subprocess.PIPE,
                             text=True,
                             timeout=args.seconds + RUN_OVERHEAD_S)
    except subprocess.TimeoutExpired:
        fail("timed out")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = ran.stdout.splitlines()
    if ran.returncode != 0 or not lines:
        sys.stderr.write(ran.stdout)
        fail("%s run failed (exit %d)" % (args.workload, ran.returncode))
    try:
        measured = json.loads(lines[-1])
    except ValueError:
        fail("no result line from the %s run" % args.workload)

    metrics = {}
    for metric in wanted:
        name, unit = metric["name"], metric["unit"]
        got = measured["metrics"].get(name)
        if got is None:
            if args.trace == "0":
                fail("end-to-end metric %s was not measured" % name)
            lines.insert(-1, "[%s] %-44s %16s %-8s  (not on this workload's "
                         "path; reported as 0)" % (args.workload, name, "n/a",
                                                   unit))
            got = {"value": 0.0, "unit": unit}
        if got["unit"] != unit:
            fail("metric %s measured in %s, BENCHMARK.json says %s" %
                 (name, got["unit"], unit))
        metrics[name] = {"value": got["value"], "unit": unit}
    result = {"correct": bool(measured["correct"]),
              "attempted": int(measured["attempted"]),
              "failed": int(measured["failed"]),
              "metrics": metrics}
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
