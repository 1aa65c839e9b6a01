#!/usr/bin/env python3
"""Diff two perf_smoke BENCH_<sha>.json reports benchmark-by-benchmark.

Usage:
    bench_compare.py BASELINE CURRENT [--fail-below [GROUP=]RATIO ...]
                     [--gate-param GATE ...] [--min-hw N]
                     [--summary PATH] [--key min|mean]

BASELINE and CURRENT are wise-bench-report JSON files (see obs/report.hpp),
or directories — a directory is searched for BENCH_*.json and the most
recently modified one is used. Benchmarks are matched by (group, name);
for each pair the tool prints the baseline/current timing and the speedup
(baseline seconds / current seconds, so >1.0 means the current run is
faster). Benchmarks present on only one side are listed but never fail
the comparison — reports are expected to grow new stages over time.

By default the exit code is 0 no matter what the numbers say: timing
ratios across different machines (or noisy CI runners) are informational.
Two kinds of gates turn the diff into a CI check that actually fails:

  --fail-below 0.8         exit 1 when any matched benchmark's speedup
                           drops under 0.8x
  --fail-below plan=0.5    same, but only for benchmarks in group `plan`
                           (repeatable; a per-group ratio overrides the
                           plain global one for that group)

  --gate-param "specialize/csr_special/rmat-hs:specialize_vs_generic_speedup>=1.2"
                           exit 1 unless the CURRENT report has that
                           benchmark, that param, and the value is >= the
                           bound. Param gates are within-run ratios, so
                           they hold on any machine — they are the strong
                           gates. Append @hw>=N to skip the gate (loudly)
                           when the stage saw fewer than N cores — the
                           benchmark's recorded hw_concurrency param when
                           present, else the hardware threads of the
                           report's hw/probe stage, else (no probe) the
                           report's OpenMP width:
                           "...speedup_vs_1shard>=1.5@hw>=4" only means
                           something with 4 cores to shard across.

  --min-hw N               skip every cross-run --fail-below gate (loudly,
                           listing each skip) when the current report ran
                           with fewer than N OpenMP threads. Param gates
                           keep their own @hw conditions. Under-provisioned
                           runners produce garbage timing ratios; skipping
                           silently would look like a passing gate, so
                           every skip is echoed both to stdout and to the
                           --summary file.

  --summary PATH           append one markdown line per gate outcome
                           (pass/fail/skip + reason) — aimed at
                           $GITHUB_STEP_SUMMARY so the job page says which
                           gates actually ran without reading the log.

A gate referencing a benchmark or param missing from the current report
FAILS — a renamed stage must not silently turn its gate into a no-op. A
missing or unreadable baseline is informational for the timing diff (the
tool says so and continues), but param gates still run: they only need
the current report.
"""

import argparse
import glob
import json
import os
import re
import signal
import sys

# Dying quietly when piped into `head` beats a BrokenPipeError traceback.
signal.signal(signal.SIGPIPE, signal.SIG_DFL)


def resolve_report(path):
    """Return the report file behind `path` (a file, or newest in a dir)."""
    if os.path.isdir(path):
        candidates = glob.glob(os.path.join(path, "BENCH_*.json"))
        if not candidates:
            return None
        return max(candidates, key=os.path.getmtime)
    return path if os.path.isfile(path) else None


def load_report(path):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != "wise-bench-report":
        raise ValueError(f"{path}: not a wise-bench-report")
    return doc


def index_benchmarks(doc):
    return {(b["group"], b["name"]): b for b in doc.get("benchmarks", [])}


# Params worth echoing in the diff when they change between runs —
# throughput/speedup numbers the CI gates read, not matrix dimensions.
INTERESTING_PARAMS = (
    "requests_per_sec",
    "warm_vs_cold_speedup",
    "cache_hit_ratio",
    "speedup_vs_1shard",
    "swap_vs_noswap_ratio",
    "plan_vs_static_speedup",
    "flat_vs_recursive_speedup",
    "specialize_vs_generic_speedup",
    "spmm_vs_repeated_spmv_speedup",
    "session_vs_per_iter_speedup",
    "dia_vs_best_csr_speedup",
    "format_vs_best_csr_speedup",
    "stream_gbs",
    "shards",
)


def param_notes(base, cur):
    notes = []
    bp, cp = base.get("params", {}), cur.get("params", {})
    for key in INTERESTING_PARAMS:
        if key in bp or key in cp:
            bv, cv = bp.get(key), cp.get(key)
            if isinstance(bv, float):
                bv = f"{bv:.3g}"
            if isinstance(cv, float):
                cv = f"{cv:.3g}"
            notes.append(f"{key} {bv}->{cv}" if bv != cv else f"{key} {cv}")
    return "  [" + ", ".join(notes) + "]" if notes else ""


def parse_fail_below(values):
    """Split repeated --fail-below args into (global_ratio, {group: ratio})."""
    global_ratio, per_group = None, {}
    for v in values or ():
        if "=" in v:
            group, _, ratio = v.partition("=")
            per_group[group] = float(ratio)
        else:
            global_ratio = float(v)
    return global_ratio, per_group


GATE_RE = re.compile(
    r"^(?P<group>[^/:]+)/(?P<name>[^:]+):(?P<param>[\w.]+)"
    r">=(?P<min>-?[\d.]+)(?:@hw>=(?P<hw>\d+))?$"
)


def parse_gate(spec):
    m = GATE_RE.match(spec)
    if not m:
        sys.exit(
            f"bench_compare: bad --gate-param {spec!r} "
            "(want group/name:param>=MIN[@hw>=N])"
        )
    return {
        "key": (m.group("group"), m.group("name")),
        "param": m.group("param"),
        "min": float(m.group("min")),
        "hw": int(m.group("hw")) if m.group("hw") else 0,
        "spec": spec,
    }


class Summary:
    """Collects gate outcomes; optionally appended to a markdown file."""

    def __init__(self, path):
        self.path = path
        self.lines = []

    def add(self, icon, text):
        print(f"  {icon} {text}")
        self.lines.append(f"- {icon} {text}")

    def flush(self, header):
        if not self.path or not self.lines:
            return
        with open(self.path, "a") as f:
            f.write(f"### {header}\n")
            f.write("\n".join(self.lines) + "\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline", help="baseline report file or directory")
    ap.add_argument("current", help="current report file or directory")
    ap.add_argument(
        "--fail-below",
        action="append",
        default=None,
        metavar="[GROUP=]RATIO",
        help="exit 1 if a matched benchmark's speedup falls below RATIO; "
        "GROUP=RATIO scopes (and overrides the global ratio for) one group; "
        "repeatable",
    )
    ap.add_argument(
        "--gate-param",
        action="append",
        default=None,
        metavar="GROUP/NAME:PARAM>=MIN[@hw>=N]",
        help="exit 1 unless the current report's benchmark param meets the "
        "bound; @hw>=N skips the gate below N hardware threads; repeatable",
    )
    ap.add_argument(
        "--min-hw",
        type=int,
        default=0,
        metavar="N",
        help="skip cross-run --fail-below gates (loudly) when the current "
        "report ran with fewer than N OpenMP threads",
    )
    ap.add_argument(
        "--summary",
        default=None,
        metavar="PATH",
        help="append markdown gate outcomes to PATH "
        "(e.g. $GITHUB_STEP_SUMMARY)",
    )
    ap.add_argument(
        "--key",
        choices=("min", "mean"),
        default="min",
        help="which timing statistic to compare (default: min)",
    )
    args = ap.parse_args()

    global_ratio, group_ratios = parse_fail_below(args.fail_below)
    gates = [parse_gate(s) for s in args.gate_param or ()]
    summary = Summary(args.summary)
    failures = []

    cur_path = resolve_report(args.current)
    if cur_path is None:
        sys.exit(f"bench_compare: no current report at {args.current!r}")
    try:
        cur = load_report(cur_path)
    except (OSError, ValueError, json.JSONDecodeError) as e:
        sys.exit(f"bench_compare: unreadable current report ({e})")
    cur_ix = index_benchmarks(cur)
    cur_hw = int(cur.get("omp_max_threads") or 0)
    # Hardware threads the run had: the hw/probe stage's count, or the
    # OpenMP width when the report predates the probe. OMP_NUM_THREADS can
    # exceed the cores (an oversubscribed 1-core runner), so the probe wins.
    probe = cur_ix.get(("hw", "probe"), {}).get("params", {})
    cur_cores = int(probe.get("threads") or cur_hw)
    print(f"current:  {cur_path} (sha {cur.get('git_sha', '?')}, "
          f"omp {cur_hw})")

    # --- cross-run timing diff (needs a baseline) --------------------------
    base_path = resolve_report(args.baseline)
    base = None
    if base_path is None:
        print(f"bench_compare: no baseline report at {args.baseline!r}; "
              "timing diff skipped (ok)")
    else:
        try:
            base = load_report(base_path)
        except (OSError, ValueError, json.JSONDecodeError) as e:
            print(f"bench_compare: unreadable baseline ({e}); "
                  "timing diff skipped (ok)")

    timing_gated = global_ratio is not None or bool(group_ratios)
    timing_skip = None
    if timing_gated and args.min_hw and cur_hw < args.min_hw:
        timing_skip = (f"runner has {cur_hw} OpenMP thread(s) < --min-hw "
                       f"{args.min_hw}")

    if base is not None:
        print(f"baseline: {base_path} (sha {base.get('git_sha', '?')}, "
              f"omp {base.get('omp_max_threads', '?')})")
        base_ix = index_benchmarks(base)
        matched = sorted(base_ix.keys() & cur_ix.keys())
        regressions = []
        for key in matched:
            b, c = base_ix[key], cur_ix[key]
            bs = b["seconds"][args.key]
            cs = c["seconds"][args.key]
            speedup = bs / cs if cs > 0 else float("inf")
            threshold = group_ratios.get(key[0], global_ratio)
            flag = ""
            if (threshold is not None and speedup < threshold
                    and timing_skip is None):
                regressions.append((key, speedup, threshold))
                flag = "  <-- REGRESSION"
            print(f"  {key[0]}/{key[1]}: {bs:.3e}s -> {cs:.3e}s "
                  f"({speedup:.2f}x){param_notes(b, c)}{flag}")
        for key in sorted(base_ix.keys() - cur_ix.keys()):
            print(f"  {key[0]}/{key[1]}: removed (baseline only)")
        for key in sorted(cur_ix.keys() - base_ix.keys()):
            print(f"  {key[0]}/{key[1]}: new (no baseline)")
        print(f"{len(matched)} matched, "
              f"{len(base_ix) - len(matched)} removed, "
              f"{len(cur_ix) - len(matched)} new")

        if timing_gated:
            if timing_skip is not None:
                summary.add("⏭️", f"timing gates SKIPPED: {timing_skip}")
            elif regressions:
                for key, speedup, threshold in regressions:
                    summary.add(
                        "❌",
                        f"timing gate {key[0]}/{key[1]}: {speedup:.2f}x "
                        f"< {threshold}x vs baseline",
                    )
                failures.extend(regressions)
            else:
                summary.add(
                    "✅",
                    f"timing gates: {len(matched)} matched benchmark(s) "
                    "above threshold",
                )
    elif timing_gated:
        summary.add("⏭️", "timing gates SKIPPED: no readable baseline")

    # --- within-run param gates (current report only) ----------------------
    for g in gates:
        label = f"{g['key'][0]}/{g['key'][1]}:{g['param']}"
        bench = cur_ix.get(g["key"])
        if bench is None:
            summary.add(
                "❌",
                f"param gate {label} FAILED: benchmark missing from "
                "current report (renamed stage?)",
            )
            failures.append(g)
            continue
        # @hw>=N compares against the cores the stage itself saw: the
        # benchmark's hw_concurrency param when recorded (shard sweep,
        # hotswap), else the run's hardware threads — never a wide
        # OMP_NUM_THREADS on fewer cores.
        hw_avail = bench.get("params", {}).get("hw_concurrency", cur_cores)
        if g["hw"] and hw_avail < g["hw"]:
            summary.add(
                "⏭️",
                f"param gate {label} SKIPPED: stage saw {hw_avail} "
                f"core(s) < required {g['hw']}",
            )
            continue
        value = bench.get("params", {}).get(g["param"])
        if not isinstance(value, (int, float)):
            summary.add(
                "❌",
                f"param gate {label} FAILED: param missing from benchmark",
            )
            failures.append(g)
            continue
        if value < g["min"]:
            summary.add(
                "❌",
                f"param gate {label} FAILED: {value:.3g} < {g['min']}",
            )
            failures.append(g)
        else:
            summary.add("✅", f"param gate {label}: {value:.3g} >= {g['min']}")

    summary.flush(f"bench_compare gates (omp {cur_hw})")
    if failures:
        sys.exit(f"bench_compare: {len(failures)} gate(s) failed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
