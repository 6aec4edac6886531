#!/usr/bin/env python3
"""Self-test of the repository benchmark.

    python3 perfbench/selftest.py

Builds the program (as run.py does), then for every workload makes a
short untraced run with seed 1, a traced run with seed 1 and an untraced
run with seed 2, and checks that:
  * every run reports zero failed checks and only metrics BENCHMARK.json
    declares for its kind; untraced runs report every end-to-end metric,
    and every per-layer metric is measured by some workload's traced run;
  * every end-to-end metric is positive;
  * the same seed gives the same input and output digests, traced or not,
    and a different seed gives different inputs;
  * a run with a program-changing environment variable is refused.
Exits non-zero on the first failure.
"""

import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SECONDS = "1"


def perfbench(workload, seed, trace, env=None):
    command = [run.BINARY, "--workload", workload, "--seed", str(seed),
               "--seconds", SECONDS, "--trace", str(trace)]
    out = subprocess.run(command, cwd=run.ROOT, stdout=subprocess.PIPE,
                         text=True, timeout=run.RUN_TIMEOUT_S, env=env)
    return out.returncode, out.stdout.strip().splitlines()


def fail(message):
    print("selftest: FAIL: " + message)
    sys.exit(1)


def check_result(workload, seed, trace, spec):
    """Runs once; returns the run facts and the per-layer names measured."""
    code, lines = perfbench(workload, seed, trace)
    if code != 0 or len(lines) < 2:
        fail("%s seed %d trace %d exited %d" % (workload, seed, trace, code))
    facts = json.loads(lines[-2])["run"]
    raw = json.loads(lines[-1])
    try:
        result, unreached = run.to_result(raw, spec, trace == 1)
    except (KeyError, ValueError) as e:
        fail("%s trace %d: %s" % (workload, trace, e))
    if (not result["correct"] or result["failed"] != 0
            or result["attempted"] < 1):
        fail("%s seed %d trace %d: %d of %d checks failed" % (
            workload, seed, trace, result["failed"], result["attempted"]))
    if not trace:
        for name, metric in result["metrics"].items():
            if not metric["value"] > 0:
                fail("%s: %s is %r" % (workload, name, metric["value"]))
    return facts, set(raw["values"])


def main():
    if not run.build():
        fail("build")
    spec = run.load_spec()
    measured_layers = set()
    for workload in run.WORKLOADS:
        plain, _ = check_result(workload, 1, 0, spec)
        traced, layers = check_result(workload, 1, 1, spec)
        other, _ = check_result(workload, 2, 0, spec)
        measured_layers |= layers
        for key in ("input_digest", "output_digest"):
            if plain[key] != traced[key]:
                fail("%s: %s differs between traced and untraced runs" % (
                    workload, key))
        if plain["input_digest"] == other["input_digest"]:
            fail("%s: seeds 1 and 2 gave the same inputs" % workload)
        print("selftest: %s ok (%d calls, digests %s/%s)" % (
            workload, plain["calls"], plain["input_digest"],
            plain["output_digest"]))
    never = sorted(m["name"] for m in spec["per_layer"]
                   if m["name"] not in measured_layers)
    if never:
        fail("no workload measures " + ", ".join(never))

    env = dict(os.environ, SF_BATCH="8")
    code, lines = perfbench("sw_churn", 1, 0, env=env)
    if code == 0 or any('"values"' in line for line in lines):
        fail("a run with SF_BATCH set was not refused")
    print("selftest: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
