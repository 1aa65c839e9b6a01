#!/usr/bin/env python3
"""Builds the end-to-end benchmark harness and runs one workload.

Run from the repository root:

    python3 e2ebench/run.py --workload oneshot --seed 1 --seconds 10 --trace 0

The harness is compiled from source into .bench_build/ on first use. The
last stdout line is the harness's JSON result; everything before it is
build output (on stderr) and the run stamp. Exits non-zero, without a
result line, if the build or the run fails.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = ".bench_build"
WORKLOADS = ("oneshot", "longrun", "serve-mix")
RUN_TIMEOUT_S = 175


def log(msg):
    print(f"[e2ebench] {msg}", file=sys.stderr, flush=True)


def build(nproc):
    if not os.path.exists(os.path.join(BUILD_DIR, "Makefile")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "wise_e2e",
                    "-j", str(nproc)], stdout=sys.stderr, check=True)
    return os.path.join(BUILD_DIR, "wise_e2e")


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    nproc = len(os.sched_getaffinity(0))
    try:
        binary = build(nproc)
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1

    env = dict(os.environ)
    # Few threads: on a shared host, a parallel region waits for its
    # slowest thread, so every thread a co-tenant stalls stalls the run,
    # and times swing more with each thread added. oneshot uses half the
    # cores. longrun, whose SpMVs stream ~2M-nonzero matrices from memory,
    # swung two to three times as much at two threads as at one, so it
    # runs on one. serve-mix splits half the cores between its two server
    # workers, so workers x OpenMP threads stay within nproc.
    half = max(1, nproc // 2)
    threads = {"oneshot": half, "longrun": 1,
               "serve-mix": max(1, half // 2)}[args.workload]
    env["OMP_NUM_THREADS"] = str(threads)
    if not args.trace:
        # End-to-end runs measure the library with every knob at its default.
        dropped = sorted(k for k in env if k.startswith("WISE_"))
        for k in dropped:
            del env[k]
        if dropped:
            log(f"cleared for the end-to-end run: {', '.join(dropped)}")

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--bank", os.path.join(HERE, "bank"), "--out", ".bench_out",
           "--git-sha", git_sha()]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        log(f"harness exited with {proc.returncode}")
        return 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log("harness printed no result line")
        return 1
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log("malformed result line")
        return 1
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
