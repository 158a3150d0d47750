#!/usr/bin/env python3
"""Build and run the perfbench benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds a
Release binary under .bench_build/perfbench (from perfbench/ and src/);
later calls rebuild incrementally. The binary's output is passed through;
its last line is the JSON result. BENCHMARK.json is the one list of
metrics: this script checks the result's metrics against the list for the
mode (end_to_end with --trace 0, per_layer with --trace 1) and their units.
An end-to-end run must print every one of them. A traced run prints the
per-layer metrics its workload exercises; the rest are filled in as 0,
with a "not exercised" line. It also checks that the run's exact work
counts match any earlier run of the same binary, workload, seed and mode
(stored under .bench_build/perfbench/exact/); a mismatch marks the result
incorrect. Exits non-zero without a result when the build or the run
fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("repository sources (src/) not found next to perfbench/")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", HERE, "-B", BUILD, *gen,
                          "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", BUILD, "-j", jobs])
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                die("build failed: " + " ".join(cmd))


def binary_digest():
    h = hashlib.sha256()
    with open(BINARY, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def expected_metrics(trace):
    """(name, unit) of every metric BENCHMARK.json lists for the mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [(m["name"], m["unit"])
            for m in spec["per_layer" if trace else "end_to_end"]]


def complete_metrics(result, trace):
    """Puts the result's metrics in BENCHMARK.json's order, filling in the
    per-layer metrics a traced run's workload does not exercise."""
    want = expected_metrics(trace)
    got = result["metrics"]
    extra = sorted(set(got) - {name for name, _ in want})
    if extra:
        die(f"metrics not in BENCHMARK.json: {extra}")
    out = {}
    for name, unit in want:
        if name in got:
            if got[name]["unit"] != unit:
                die(f"metric {name} has unit {got[name]['unit']}, "
                    f"BENCHMARK.json says {unit}")
            out[name] = got[name]
        elif trace:
            print(f"layer metric {name}: not exercised by this workload")
            out[name] = {"value": 0, "unit": unit}
        else:
            die(f"end-to-end metric {name} missing")
    result["metrics"] = out


def check_exact(args, exact, result):
    """Exact counts must repeat for one binary, workload, seed and mode."""
    if not exact:
        return
    path = os.path.join(BUILD, "exact",
                        f"{args.workload}-s{args.seed}-t{args.trace}.json")
    digest = binary_digest()
    record = {"binary": digest, "counts": exact}
    if os.path.isfile(path):
        with open(path) as f:
            before = json.load(f)
        if before.get("binary") == digest:
            if before["counts"] != exact:
                print("INCORRECT: exact counts differ from an earlier run: "
                      f"{before['counts']} vs {exact}")
                result["correct"] = False
            return
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump(record, f, sort_keys=True)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args()
    if args.seed < 0:
        die("--seed must be non-negative")

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        die(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        die(f"benchmark exited with code {proc.returncode}")

    *details, last = lines
    try:
        result = json.loads(last)
    except json.JSONDecodeError:
        sys.stdout.write(proc.stdout)
        die("last output line is not a JSON result")
    complete_metrics(result, args.trace)
    for line in details:
        print(line)

    exact = {}
    for line in details:
        if line.startswith("exact "):
            _, name, value = line.split()
            exact[name] = value
    check_exact(args, exact, result)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
