#!/usr/bin/env python3
"""Smoke test of the benchmark at tiny scale.

    python3 perfbench/smoke.py

Run from the repository root. For every workload in BENCHMARK.json, in both
modes (--trace 0 and --trace 1), runs perfbench/run.py for one second and
checks that it exits 0, that its last line is a result with the right keys
and that the outputs passed their correctness check. run.py itself exits
non-zero unless every metric BENCHMARK.json names for the mode is printed
with its unit, so exit 0 covers that as well. Then checks that
a copy holding only BENCHMARK.json and perfbench/ (no sources) exits
non-zero without printing a result. Exits 1 on the first failure.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    print(f"smoke: FAIL: {msg}")
    sys.exit(1)


def run(root, workload, trace, seconds="1"):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", "1", "--seconds", seconds,
           "--trace", str(trace)]
    return subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)


def check_result(workload, trace):
    proc = run(ROOT, workload, trace)
    if proc.returncode != 0:
        fail(f"{workload} --trace {trace} exited {proc.returncode}: "
             f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: result keys {sorted(result)}")
    if result["correct"] is not True:
        fail(f"{workload} --trace {trace}: outputs incorrect:\n{proc.stdout}")
    if not result["attempted"] >= 1:
        fail(f"{workload}: nothing attempted")
    if result["failed"]:
        print(f"smoke: note: {workload} --trace {trace}: "
              f"{result['failed']} instances did not decide")
    print(f"smoke: ok: {workload} --trace {trace} "
          f"({result['attempted']} instances)")


def check_bare_copy():
    bare = os.path.join(ROOT, ".bench_build", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = run(bare, "svc-d2-lossy", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0:
        fail("a copy without the sources exited 0")
    if proc.stdout.strip():
        last = proc.stdout.strip().splitlines()[-1]
        if last.startswith("{"):
            fail("a copy without the sources printed a result")
    print("smoke: ok: a copy without the sources refuses to run")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for w in spec["workloads"]:
        for trace in (0, 1):
            check_result(w["name"], trace)
    check_bare_copy()
    print("smoke: all ok")


if __name__ == "__main__":
    main()
