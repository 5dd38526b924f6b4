#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark at tiny scale.

    python3 perfbench/selftest.py

1. Inputs are a pure function of the seed: one seed regenerates a
   byte-identical input digest (cohort, split, shard bytes, decompensation
   subset, bed order, arrival schedule) and another seed does not.
2. Every workload runs untraced and traced on tiny inputs, exits 0 with its
   output checks passing, and emits every metric BENCHMARK.json names for
   that mode (end_to_end untraced, per_layer traced) with its unit and a
   finite value, and nothing else.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402  (the build step lives there)


def digest(seed):
    out = subprocess.run([run.BINARY, "--workload", "elda", "--seed", str(seed),
                          "--scale", "tiny", "--digest"],
                         check=True, capture_output=True, text=True)
    return out.stdout.strip()


def main():
    os.chdir(ROOT)
    run.build()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    failures = []

    a, b, c = digest(7), digest(7), digest(8)
    print("digest seed 7: %s, again: %s, seed 8: %s" % (a, b, c))
    if a != b:
        failures.append("seed 7 did not regenerate identical inputs")
    if a == c:
        failures.append("seeds 7 and 8 generated identical inputs")

    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", "3", "--seconds", "10", "--trace",
                 str(trace), "--scale", "tiny"],
                capture_output=True, text=True)
            tag = "%s trace=%d" % (workload, trace)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                failures.append("%s exited %d: %s" % (
                    tag, proc.returncode, proc.stderr[-2000:]))
                continue
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append("%s: unexpected result keys" % tag)
            if not result["correct"] or result["attempted"] < 1:
                failures.append("%s: checks failed or nothing attempted" % tag)
            metrics = result["metrics"]
            expected = {m["name"]: m["unit"] for m in spec[key]}
            for name, unit in expected.items():
                got = metrics.get(name)
                if got is None:
                    failures.append("%s: %s missing" % (tag, name))
                elif got["unit"] != unit:
                    failures.append("%s: %s unit %s, want %s" % (
                        tag, name, got["unit"], unit))
                elif not isinstance(got["value"], (int, float)) or \
                        not math.isfinite(got["value"]):
                    failures.append("%s: %s value %r" % (tag, name, got["value"]))
            extra = set(metrics) - set(expected)
            if extra:
                failures.append("%s: unlisted metrics %s" % (tag, sorted(extra)))
            print("%s: %d metrics, attempted %d, failed %d" % (
                tag, len(metrics), result["attempted"], result["failed"]))

    for failure in failures:
        print("FAIL:", failure)
    print("selftest", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
