#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at miniature scale.

    python3 perfbench/smoke.py

For every workload in BENCHMARK.json it checks that
  * an untraced run passes its output checks and emits every end-to-end
    metric with its unit, and nothing else;
  * a traced run emits every per-layer metric with its unit;
  * a run whose expected state is deliberately wrong fails its output
    check: it exits non-zero and reports "correct": false.
Exits non-zero on the first failure.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny", *extra]
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return p.returncode, result, p.stdout


def expect_metrics(result, specs, what):
    if result is None:
        raise AssertionError(f"{what}: no result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{what}: result keys {sorted(result)}")
    want = {m["name"]: m["unit"] for m in specs}
    have = {k: v["unit"] for k, v in result["metrics"].items()}
    if have != want:
        missing = sorted(set(want) - set(have))
        extra = sorted(set(have) - set(want))
        wrong = sorted(k for k in want if k in have and have[k] != want[k])
        raise AssertionError(f"{what}: missing {missing}, unexpected {extra}, wrong unit {wrong}")
    for k, v in result["metrics"].items():
        if not isinstance(v["value"], (int, float)):
            raise AssertionError(f"{what}: {k} is not a number")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for w in bench["workloads"]:
        name = w["name"]
        code, result, out = run(name, 0)
        if code != 0 or not result or not result["correct"]:
            sys.stdout.write(out)
            raise AssertionError(f"{name}: untraced run failed (exit {code})")
        expect_metrics(result, bench["end_to_end"], f"{name} --trace 0")
        if min(v["value"] for v in result["metrics"].values()) <= 0:
            raise AssertionError(f"{name}: an end-to-end metric is not positive")

        code, result, out = run(name, 1)
        if code != 0 or not result or not result["correct"]:
            sys.stdout.write(out)
            raise AssertionError(f"{name}: traced run failed (exit {code})")
        expect_metrics(result, bench["per_layer"], f"{name} --trace 1")

        code, result, out = run(name, 0, "--corrupt-expected")
        if code == 0 or result is None or result["correct"]:
            sys.stdout.write(out)
            raise AssertionError(f"{name}: a wrong expected state did not fail the check")
        print(f"smoke {name}: ok")
    print("smoke: all workloads ok")


if __name__ == "__main__":
    main()
