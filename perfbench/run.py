#!/usr/bin/env python3
"""Runs one workload of the repository benchmark (see NOTES.md beside it).

    python3 perfbench/run.py --workload <sw_churn|region> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. On first use it builds the measuring program
from source with CMake (Release) into .bench_build/perfbench; later runs
only re-check the build. It prints one JSON line of host facts, one of run
facts (digests, call count), and as the last line the result object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}, whose
metric names and units come from BENCHMARK.json.
Exits non-zero without a result when the build, the run or a check fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("sw_churn", "region")
# Each of these changes the program under test.
PROGRAM_GATES = ("SF_FLOW_CACHE", "SF_GUARD", "SF_DPU", "SF_BATCH")
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the program; build output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            return False
    return os.path.exists(BINARY)


def first_line(path, prefix):
    try:
        with open(path) as f:
            for line in f:
                if line.startswith(prefix):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def cmake_cache(key):
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return None


def source_digest():
    """SHA-256 over the program and benchmark sources, for checkouts
    without git metadata."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def host_facts():
    sha = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        git = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        sha = git.stdout.strip() or None
    compiler = cmake_cache("CMAKE_CXX_COMPILER")
    version = None
    if compiler:
        out = subprocess.run([compiler, "--version"], capture_output=True,
                             text=True)
        version = (out.stdout.splitlines() or [None])[0]
    l3 = None
    try:
        with open("/sys/devices/system/cpu/cpu0/cache/index3/size") as f:
            l3 = f.read().strip()
    except OSError:
        pass
    return {
        "git_sha": sha,
        "source_sha256": source_digest(),
        "cpu_model": first_line("/proc/cpuinfo", "model name"),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "l3": l3,
        "compiler": version,
        "build_type": cmake_cache("CMAKE_BUILD_TYPE"),
    }


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def to_result(raw, spec, trace):
    """The result object: the program's check counts and its measured
    values, with the units BENCHMARK.json declares. Returns (result,
    unreached names) or raises ValueError when a value is undeclared or an
    end-to-end metric is missing. A per-layer metric of a layer this
    workload does not reach is reported as 0."""
    declared = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    values = raw["values"]
    extra = sorted(set(values) - set(units))
    if extra:
        raise ValueError("undeclared metrics: " + ", ".join(extra))
    unreached = [m["name"] for m in declared if m["name"] not in values]
    if unreached and not trace:
        raise ValueError("missing metrics: " + ", ".join(unreached))
    metrics = {m["name"]: {"value": values.get(m["name"], 0),
                           "unit": m["unit"]} for m in declared}
    result = {"correct": raw["correct"], "attempted": raw["attempted"],
              "failed": raw["failed"], "metrics": metrics}
    return result, unreached


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    set_gates = [g for g in PROGRAM_GATES if g in os.environ]
    if set_gates:
        print("run.py: refusing to run with %s set; it changes the program "
              "under test" % ", ".join(set_gates), file=sys.stderr)
        return 3
    if not build():
        print("run.py: build failed", file=sys.stderr)
        return 1

    trace_dir = os.path.join(ROOT, ".bench_build", "traces")
    os.makedirs(trace_dir, exist_ok=True)
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        command += ["--trace-out", os.path.join(
            trace_dir, "%s-seed%d.tsv" % (args.workload, args.seed))]
    try:
        run = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    if run.returncode != 0:
        print("run.py: perfbench exited with %d" % run.returncode,
              file=sys.stderr)
        return 1

    lines = run.stdout.strip().splitlines()
    try:
        result, unreached = to_result(json.loads(lines[-1]), load_spec(),
                                      args.trace == "1")
    except (IndexError, KeyError, OSError, ValueError) as e:
        print("run.py: bad result: %s" % e, file=sys.stderr)
        return 1

    print(json.dumps({"host": host_facts()}))
    for line in lines[:-1]:
        print(line)
    if unreached:
        print(json.dumps({"unreached_layers": unreached}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
