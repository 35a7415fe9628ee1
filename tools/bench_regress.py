#!/usr/bin/env python3
"""Within-run ratio gates for the library's hot paths.

Runs one suite of benchmarks, writes the measured rows to an output JSON
file, and fails (exit 1) when a gated throughput ratio leaves its
bounds. Every gate divides the ``items_per_second`` of two rows measured
in the same run, a ``fast`` twin by a ``slow`` one, so host speed
cancels and nothing is compared with a number recorded on another day.

A gate with ``min_ratio`` holds a speed-up: a regression in the fast row
(the memoized sweep falling back to the naive path, the calendar kernel
losing to the seed-kernel replica) pulls the ratio down. A gate with
``max_ratio`` holds an overhead: the fast row is a twin that does the
same items without the code under test (a bare ``Rng::exponential``
loop, an inline token bucket, the traffic run's event skeleton on the
DES kernel alone), so a regression in the slow row pushes the ratio up.
A pair whose rows can each regress is bounded on both sides.

Suites: ``sweep`` (perf_enumeration + perf_pareto, the default),
``traffic`` (perf_traffic) and ``des`` (perf_des), all google-benchmark
binaries. ``--smoke`` runs only the gated rows, each for a shorter time,
for ctest; a full run also records every other row of the suite's
binaries. Both gate the same pairs, and a gated row missing from a run
is a setup error. The control, streaming and federation overheads are
ratios that ``bench/hcep_bench`` reports.

Each row runs three times, google-benchmark's repetitions interleaved
at random with the other rows', and keeps its best throughput, so a host
slowdown of a few seconds hits both sides of a ratio or neither.
google-benchmark's default CPU timer measures the main benchmark thread
only, so every gated row is serial or wall-clock (``UseRealTime()``,
named ``.../real_time``).

Usage:
  tools/bench_regress.py [--suite sweep|traffic|des] [--build-dir build]
                         [--output build/BENCH_<suite>.json] [--smoke]

Exit status: 0 when every gate holds, 1 when one does not, 2 on a setup
error (a missing binary or row).
"""

import argparse
import json
import os
import subprocess
import sys

REPETITIONS = 3

# Each suite: the binaries it runs (relative to the build directory) and
# its gates; the smoke filter is the gated rows. Bounds keep at least a
# 2x margin over the worst of ten smoke runs on a shared 4-vCPU VM
# (the readings are in docs/PERF.md).
SUITES = {
    "sweep": {
        "binaries": ["bench/perf_enumeration", "bench/perf_pareto"],
        "ratios": [
            # Odometer decode vs a materialized ClusterSpec per index.
            # config_at calls decode_at, so a decode_at regression moves
            # both rows; the inline replica holds decode_at alone.
            {"fast": "BM_DecodeAt", "slow": "BM_ConfigDecode",
             "min_ratio": 1.5, "max_ratio": 12.0},
            {"fast": "BM_DecodeAtReplica", "slow": "BM_DecodeAt",
             "max_ratio": 4.0},
            {"fast": "BM_FullSweep", "slow": "BM_FullSweepMaterialized",
             "min_ratio": 6.0},
            # Memoized evaluate_space vs the per-config model path; a
            # fall-back to the naive path reads about 1x.
            {"fast": "BM_EvaluateSpace/10/1",
             "slow": "BM_EvaluateSpaceNaive/10/1", "min_ratio": 10.0},
            # The set overload's prefilter keeps 41 of x264's 23,344
            # configurations; with equal-width time buckets it kept
            # 12,051, and the ratio read 10-18 (docs/PERF.md).
            {"fast": "BM_ParetoFront", "slow": "BM_ParetoFrontMaterialized",
             "min_ratio": 50.0},
        ],
    },
    "traffic": {
        "binaries": ["bench/perf_traffic"],
        "ratios": [
            {"fast": "BM_RawExponential", "slow": "BM_PoissonArrivals",
             "max_ratio": 3.0},
            {"fast": "BM_TokenBucketReplica", "slow": "BM_TokenBucketAcquire",
             "max_ratio": 12.0},
            {"fast": "BM_DesReplay/16384/real_time",
             "slow": "BM_SimulateTraffic/16384/real_time", "max_ratio": 4.0},
            {"fast": "BM_DesReplay/131072/real_time",
             "slow": "BM_AdmissionSloPath/131072/real_time",
             "max_ratio": 6.0},
        ],
    },
    "des": {
        "binaries": ["bench/perf_des"],
        "ratios": [
            # The calendar kernel vs the seed kernel's replica (binary
            # heap + std::function); HeapScheduler in place of the
            # calendar reads about 1.4x at 64k and 1.1x at 1M pending.
            {"fast": "BM_ChurnCalendar/65536", "slow": "BM_ChurnLegacy/65536",
             "min_ratio": 1.5},
            {"fast": "BM_ChurnCalendar/1048576",
             "slow": "BM_ChurnLegacy/1048576", "min_ratio": 1.4},
            {"fast": "BM_ChurnBimodalCalendar/65536",
             "slow": "BM_ChurnBimodalLegacy/65536", "min_ratio": 1.3},
            # One pending event: the kernel's fixed cost per event.
            {"fast": "BM_EventQueueChurn/100000",
             "slow": "BM_EventQueueChurnLegacy/100000", "min_ratio": 0.8},
            {"fast": "BM_CallbackInline", "slow": "BM_CallbackHeapSpill",
             "min_ratio": 2.5},
        ],
    },
}


def run_benchmark(binary, smoke, names):
    cmd = [binary, "--benchmark_format=json",
           f"--benchmark_min_time={0.025 if smoke else 0.25}",
           f"--benchmark_repetitions={REPETITIONS}",
           "--benchmark_enable_random_interleaving=true"]
    if smoke:
        cmd.append("--benchmark_filter=" +
                   "|".join(f"^{n}$" for n in sorted(names)))
    out = subprocess.run(cmd, capture_output=True, text=True,
                         check=True).stdout
    # perf_enumeration prints its footnote-4 startup check before the JSON.
    best = {}
    for b in json.loads(out[out.index("{"):])["benchmarks"]:
        if b.get("run_type") != "iteration":
            continue  # mean/median/stddev rows of the repetitions
        row = {"items_per_second": b.get("items_per_second"),
               "real_time": b["real_time"], "cpu_time": b["cpu_time"],
               "time_unit": b["time_unit"]}
        kept = best.get(b["name"])
        if kept is None or (row["items_per_second"] or 0) > (
                kept["items_per_second"] or 0):
            best[b["name"]] = row
    return best


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--suite", default="sweep", choices=sorted(SUITES),
                    help="which benchmark suite to run (default: sweep)")
    ap.add_argument("--build-dir", default="build")
    ap.add_argument("--output", default=None,
                    help="where to write measured results "
                         "(default: <build-dir>/BENCH_<suite>.json)")
    ap.add_argument("--smoke", action="store_true",
                    help="run only the gated rows, briefly, for ctest")
    args = ap.parse_args()

    suite = SUITES[args.suite]
    output_path = args.output or os.path.join(args.build_dir,
                                              f"BENCH_{args.suite}.json")
    names = {g[side] for g in suite["ratios"] for side in ("fast", "slow")}

    measured = {}
    for binary in suite["binaries"]:
        path = os.path.join(args.build_dir, binary)
        if not os.path.exists(path):
            print(f"bench_regress: missing binary {path}", file=sys.stderr)
            return 2
        measured.update(run_benchmark(path, args.smoke, names))

    os.makedirs(os.path.dirname(os.path.abspath(output_path)), exist_ok=True)
    with open(output_path, "w") as f:
        json.dump({"benchmarks": measured}, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"bench_regress: wrote {len(measured)} results to {output_path}")

    missing = sorted(n for n in names
                     if not measured.get(n, {}).get("items_per_second"))
    if missing:
        print(f"bench_regress: no throughput for {', '.join(missing)}",
              file=sys.stderr)
        return 2

    failed = []
    for gate in suite["ratios"]:
        ratio = (measured[gate["fast"]]["items_per_second"] /
                 measured[gate["slow"]]["items_per_second"])
        low = gate.get("min_ratio", 0.0)
        high = gate.get("max_ratio", float("inf"))
        ok = low <= ratio <= high
        bounds = ", ".join(f"{k[:3]} {gate[k]:.2f}x"
                           for k in ("min_ratio", "max_ratio") if k in gate)
        print(f"  {gate['fast']} / {gate['slow']}: {ratio:.2f}x "
              f"({bounds})  {'OK' if ok else 'OUT OF BOUNDS'}")
        if not ok:
            failed.append(f"{gate['fast']} / {gate['slow']}")

    if failed:
        print(f"bench_regress: FAIL — {', '.join(failed)} out of bounds",
              file=sys.stderr)
        return 1
    print(f"bench_regress: all {len(suite['ratios'])} ratio gates hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
