#!/usr/bin/env python3
"""Checks that bench_compare.py's @hw>=N gate condition reads hardware.

Runs the tool on two tiny synthetic wise-bench-report files whose hw/probe
stage records 1 and 4 hardware threads, both at an OpenMP width of 2. A
gate needing two cores must be SKIPPED on the 1-thread report (whatever
OMP_NUM_THREADS said) and evaluated on the 4-thread one.

Usage: bench_compare_test.py REPO_ROOT
"""

import json
import os
import subprocess
import sys
import tempfile

GATE = "solve/session_warm/cg-stencil:session_vs_per_iter_speedup>=2.0@hw>=2"


def report(probe_threads):
    return {
        "schema": "wise-bench-report",
        "version": 1,
        "suite": "perf_smoke",
        "git_sha": "synthetic",
        "omp_max_threads": 2,
        "benchmarks": [
            {"group": "hw", "name": "probe", "iters": 1,
             "params": {"threads": probe_threads},
             "seconds": {"min": 0.01, "mean": 0.01, "max": 0.01}},
            {"group": "solve", "name": "session_warm/cg-stencil", "iters": 1,
             "params": {"session_vs_per_iter_speedup": 2.5},
             "seconds": {"min": 0.02, "mean": 0.02, "max": 0.02}},
        ],
        "metrics": {},
    }


def run_gate(tool, path):
    out = subprocess.run(
        [sys.executable, tool, path, path, "--gate-param", GATE],
        capture_output=True, text=True, check=False)
    gate_lines = [l for l in out.stdout.splitlines() if "param gate" in l]
    if out.returncode != 0 or len(gate_lines) != 1:
        sys.exit(f"bench_compare failed on {path}:\n{out.stdout}{out.stderr}")
    return gate_lines[0]


def main():
    tool = os.path.join(sys.argv[1], "tools", "bench_compare.py")
    with tempfile.TemporaryDirectory() as tmp:
        lines = {}
        for threads in (1, 4):
            path = os.path.join(tmp, f"BENCH_probe{threads}.json")
            with open(path, "w") as f:
                json.dump(report(threads), f)
            lines[threads] = run_gate(tool, path)
    failures = []
    if "SKIPPED" not in lines[1]:
        failures.append(f"1 hardware thread must skip the gate: {lines[1]}")
    if "SKIPPED" in lines[4] or ">= 2.0" not in lines[4]:
        failures.append(f"4 hardware threads must evaluate it: {lines[4]}")
    if failures:
        sys.exit("\n".join(failures))
    print("bench_compare @hw gates follow hw/probe threads")
    return 0


if __name__ == "__main__":
    sys.exit(main())
