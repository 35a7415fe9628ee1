#!/usr/bin/env python3
"""Benchmark regression gate.

Runs one suite of google-benchmark binaries with
``--benchmark_format=json``, writes the merged results to an output JSON
file, and fails (exit 1) when any gated benchmark regresses by more than
the threshold against the suite's checked-in baseline at the repository
root. Suites: ``sweep`` (perf_enumeration + perf_pareto vs
``BENCH_sweep.json``, the default), ``traffic`` (perf_traffic vs
``BENCH_traffic.json``), ``des`` (perf_des vs ``BENCH_des.json``) and
``lint`` (the hcep_lint analyzer's own wall-clock vs
``BENCH_lint.json`` — not a google-benchmark binary; see below). The
control, streaming and federation overheads are ratios that
``bench/hcep_bench`` reports (``control.overhead_ratio``,
``obs.stream.overhead_ratio``, ``fed.single_site.overhead_ratio``).

The ``lint`` suite times full-tree scans of the repository with the
static analyzer: a cold scan (empty result cache — every file is
tokenized, scope-tracked and analyzed) and a warm scan (all files hit
the mtime+hash cache). Both report files/second as
``items_per_second`` so the same gate machinery applies, and a
``min_ratio`` gate demands the warm scan stay well above the cold one —
if the cache stops hitting, the ratio collapses to 1 and the gate
fails even on a machine where absolute speed drifted.

The gate compares ``items_per_second`` for serial benchmarks and for
wall-clock ones (``UseRealTime()``, named ``.../real_time``):
google-benchmark's default CPU timer measures the main benchmark thread,
so CPU-timed thread-pool variants under-report work and are recorded but
never gated (the ``des`` suite records BM_ShardedTraffic/1..8 wall-clock
scaling this way; ``bench/hcep_bench``'s ``sharded_scaling`` workload
reports the shard speedup and efficiency). The traffic suite gates its
simulate_traffic rows by their wall-clock ``/real_time`` names.

Suites may additionally declare ``ratio_gates``: within-run throughput
ratios between a fast and a slow implementation measured minutes apart at
most (e.g. the calendar-queue DES kernel vs the seed binary-heap +
std::function replica). Unlike the absolute gates these need no baseline
and survive machine-speed changes — a builder twice as slow fails both
sides equally — so they are enforced in smoke runs too. A gate with
``min_ratio`` demands fast/slow stay ABOVE it (the fast side must keep
its speedup); a gate with ``max_ratio`` demands it stay BELOW (the slow
side is an instrumented variant whose overhead is bounded).

Usage:
  tools/bench_regress.py [--suite sweep|traffic|des|lint] [--build-dir build]
                         [--baseline BENCH_<suite>.json]
                         [--output build/BENCH_<suite>.json]
                         [--threshold 0.20] [--smoke] [--update-baseline]

``--smoke`` runs a short, filtered pass for ctest (seconds, not minutes)
and relaxes the threshold to 0.60 unless one is given explicitly: on a
shared machine a quick sample is too noisy for a 20% gate, but still
catches order-of-magnitude regressions like an accidental fallback to
the naive path. ``--update-baseline`` rewrites the baseline block in
place (run after intentional performance changes, on a quiet machine).
"""

import argparse
import json
import os
import re
import subprocess
import sys
import time

# Per-suite configuration. ``gated`` lists benchmarks with stable
# throughput (serial CPU time, or wall-clock ``/real_time``); everything
# else is recorded for reference but not gated. ``smoke_filter`` keeps
# the ctest pass to seconds.
SUITES = {
    "sweep": {
        "binaries": ["perf_enumeration", "perf_pareto"],
        "baseline": "BENCH_sweep.json",
        "gated": [
            "BM_ConfigDecode",
            "BM_DecodeAt",
            "BM_FullSweep",
            "BM_ParetoFront",
        ],
        # The memoized sweep against the naive one in the same binary.
        # The ratio reads about 30x on a shared 4-core builder, where the
        # absolute BM_EvaluateSpace/10/1 row swung between 0.37 and 0.50
        # of its baseline and is no longer gated; a fall-back to the
        # naive path reads about 1x.
        "ratio_gates": [
            {"fast": "BM_EvaluateSpace/10/1",
             "slow": "BM_EvaluateSpaceNaive/10/1", "min_ratio": 10.0},
        ],
        "smoke_filter": (
            "BM_ConfigDecode|BM_DecodeAt|BM_FullSweep$|"
            "BM_EvaluateSpace/10/1|BM_EvaluateSpaceNaive/10/1|"
            "BM_ParetoFront$"
        ),
    },
    "traffic": {
        "binaries": ["perf_traffic"],
        "baseline": "BENCH_traffic.json",
        "gated": [
            "BM_PoissonArrivals",
            "BM_TokenBucketAcquire",
            "BM_SimulateTraffic/16384/real_time",
            "BM_AdmissionSloPath/131072/real_time",
            "BM_AdmissionSloPath/1048576/real_time",
        ],
        # The smoke pass swaps the >1M-request gate for the 128k size:
        # the path is identical, the wall time is ctest-friendly.
        "smoke_filter": (
            "BM_PoissonArrivals$|BM_TokenBucketAcquire$|"
            "BM_SimulateTraffic/16384/real_time$|"
            "BM_AdmissionSloPath/131072/real_time$"
        ),
    },
    "des": {
        "binaries": ["perf_des"],
        "baseline": "BENCH_des.json",
        "gated": [
            "BM_ChurnCalendar/65536",
            "BM_EventQueueChurn/100000",
            "BM_CallbackInline",
        ],
        # Within-run kernel-vs-seed-replica ratios. Thresholds sit below
        # the ratios measured on a quiet single-core builder (2.4x / 2.0x
        # / 2.0x best-of-3; see docs/PERF.md) by enough margin to absorb
        # the +-30% thermal noise observed on shared machines, while
        # still catching any change that drags the calendar kernel back
        # toward heap+std::function parity.
        "ratio_gates": [
            {"fast": "BM_ChurnCalendar/65536",
             "slow": "BM_ChurnLegacy/65536", "min_ratio": 1.5},
            {"fast": "BM_ChurnCalendar/1048576",
             "slow": "BM_ChurnLegacy/1048576", "min_ratio": 1.4},
            {"fast": "BM_ChurnBimodalCalendar/65536",
             "slow": "BM_ChurnBimodalLegacy/65536", "min_ratio": 1.3},
        ],
        # Churn iterations execute 2M events each, so even the smoke pass
        # measures the gated ratios at full depth; the 1M-pending pair and
        # the sharded end-to-end runs are full-suite only.
        "smoke_filter": (
            "BM_ChurnCalendar/65536$|BM_ChurnLegacy/65536$|"
            "BM_ChurnBimodalCalendar/65536$|BM_ChurnBimodalLegacy/65536$|"
            "BM_EventQueueChurn/100000$|BM_CallbackInline$"
        ),
    },
    "lint": {
        # Custom wall-clock runner (run_lint_suite), not google-benchmark:
        # the analyzer must stay fast enough to remain a default `lint`
        # ctest, so its scan time is gated like any other hot path.
        "binaries": [],
        "runner": "lint",
        "baseline": "BENCH_lint.json",
        "gated": ["LintScanCold", "LintScanWarm"],
        # The cache contract, machine-independently: a warm scan only
        # stats+reads files, so it must beat the cold scan handily. The
        # measured ratio is >5x on a quiet builder; 2x absorbs noise
        # while still failing if cache hits stop happening.
        "ratio_gates": [
            {"fast": "LintScanWarm", "slow": "LintScanCold",
             "min_ratio": 2.0},
        ],
        "smoke_filter": None,
    },
}


def run_lint_suite(build_dir, repo_root, smoke):
    """Times hcep_lint full-tree scans: cold (no cache) and warm.

    Returns a ``measured`` dict in the same shape as run_benchmark's
    output: files/second as items_per_second, seconds as real_time.
    """
    binary = os.path.join(build_dir, "tools", "lint", "hcep_lint")
    if not os.path.exists(binary):
        print(f"bench_regress: missing analyzer binary {binary}",
              file=sys.stderr)
        return None
    cache = os.path.join(build_dir, "hcep_lint_bench_cache.txt")
    reps = 1 if smoke else 3

    def scan():
        start = time.perf_counter()
        out = subprocess.run(
            [binary, "--root", repo_root, "--cache", cache],
            capture_output=True, text=True).stdout
        elapsed = time.perf_counter() - start
        m = re.search(r"scanned (\d+) file", out)
        return elapsed, int(m.group(1)) if m else 0

    results = {}
    # Cold: delete the cache before every rep; best-of-N wall clock.
    cold = []
    for _ in range(reps):
        if os.path.exists(cache):
            os.remove(cache)
        cold.append(scan())
    best, files = min(cold, key=lambda r: r[0])
    results["LintScanCold"] = {
        "items_per_second": files / best if best > 0 else None,
        "real_time": best, "cpu_time": best, "time_unit": "s"}
    # Warm: the cache file left by the last cold rep now covers the tree.
    scan()  # prime (refreshes mtimes recorded in the cache)
    best, files = min((scan() for _ in range(max(reps, 2))),
                      key=lambda r: r[0])
    results["LintScanWarm"] = {
        "items_per_second": files / best if best > 0 else None,
        "real_time": best, "cpu_time": best, "time_unit": "s"}
    return results


def run_benchmark(path, min_time, bench_filter=None):
    cmd = [path, "--benchmark_format=json", f"--benchmark_min_time={min_time}"]
    if bench_filter:
        cmd.append(f"--benchmark_filter={bench_filter}")
    out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
    # perf_enumeration prints its footnote-4 startup check before the JSON.
    return json.loads(out[out.index("{"):])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--suite", default="sweep", choices=sorted(SUITES),
                    help="which benchmark suite to run (default: sweep)")
    ap.add_argument("--build-dir", default="build")
    ap.add_argument("--baseline", default=None,
                    help="baseline JSON (default: the suite's "
                         "BENCH_<suite>.json at the repository root)")
    ap.add_argument("--output", default=None,
                    help="where to write measured results "
                         "(default: <build-dir>/BENCH_<suite>.json)")
    ap.add_argument("--threshold", type=float, default=None,
                    help="max allowed fractional regression (default 0.20, "
                         "or 0.60 with --smoke)")
    ap.add_argument("--smoke", action="store_true",
                    help="short filtered run for ctest")
    ap.add_argument("--update-baseline", action="store_true",
                    help="rewrite the baseline block from this run")
    args = ap.parse_args()

    suite = SUITES[args.suite]
    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    baseline_path = args.baseline or os.path.join(repo_root,
                                                  suite["baseline"])
    output_path = args.output or os.path.join(args.build_dir,
                                              suite["baseline"])
    threshold = args.threshold if args.threshold is not None else (
        0.60 if args.smoke else 0.20)
    min_time = 0.025 if args.smoke else 0.25
    bench_filter = suite["smoke_filter"] if args.smoke else None

    if suite.get("runner") == "lint":
        measured = run_lint_suite(args.build_dir, repo_root, args.smoke)
        if measured is None:
            return 2
    else:
        measured = {}
        for binary in suite["binaries"]:
            path = os.path.join(args.build_dir, "bench", binary)
            if not os.path.exists(path):
                print(f"bench_regress: missing benchmark binary {path}",
                      file=sys.stderr)
                return 2
            for b in run_benchmark(path, min_time, bench_filter)["benchmarks"]:
                measured[b["name"]] = {
                    "items_per_second": b.get("items_per_second"),
                    "real_time": b["real_time"],
                    "cpu_time": b["cpu_time"],
                    "time_unit": b["time_unit"],
                }

    os.makedirs(os.path.dirname(os.path.abspath(output_path)), exist_ok=True)
    with open(output_path, "w") as f:
        json.dump({"benchmarks": measured}, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"bench_regress: wrote {len(measured)} results to {output_path}")

    try:
        with open(baseline_path) as f:
            baseline_doc = json.load(f)
    except FileNotFoundError:
        baseline_doc = {}
    baseline = baseline_doc.get("baseline", {})

    if args.update_baseline:
        baseline_doc["baseline"] = {
            name: {"items_per_second": measured[name]["items_per_second"]}
            for name in suite["gated"]
            if measured.get(name, {}).get("items_per_second")
        }
        with open(baseline_path, "w") as f:
            json.dump(baseline_doc, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"bench_regress: baseline updated in {baseline_path}")
        return 0

    if not baseline:
        print(f"bench_regress: no baseline block in {baseline_path}; "
              "run with --update-baseline to create one", file=sys.stderr)
        return 2

    failed = []
    for name in suite["gated"]:
        base = baseline.get(name, {}).get("items_per_second")
        cur = measured.get(name, {}).get("items_per_second")
        if base is None or cur is None:
            continue
        ratio = cur / base
        status = "OK" if ratio >= 1.0 - threshold else "REGRESSED"
        print(f"  {name:30s} baseline={base:12.4g}/s  "
              f"current={cur:12.4g}/s  ratio={ratio:6.3f}  {status}")
        if ratio < 1.0 - threshold:
            failed.append(name)

    for gate in suite.get("ratio_gates", []):
        fast = measured.get(gate["fast"], {}).get("items_per_second")
        slow = measured.get(gate["slow"], {}).get("items_per_second")
        if fast is None or slow is None:
            continue  # pair filtered out of this run
        ratio = fast / slow
        bounds = []
        ok = True
        if "min_ratio" in gate:
            bounds.append(f"min {gate['min_ratio']:.2f}x")
            ok = ok and ratio >= gate["min_ratio"]
        if "max_ratio" in gate:
            bounds.append(f"max {gate['max_ratio']:.2f}x")
            ok = ok and ratio <= gate["max_ratio"]
        print(f"  {gate['fast']} vs {gate['slow']}: "
              f"{ratio:.2f}x ({', '.join(bounds)})  "
              f"{'OK' if ok else 'OUT OF BOUNDS'}")
        if not ok:
            failed.append(f"{gate['fast']} vs {gate['slow']}")

    if failed:
        print(f"bench_regress: FAIL — {', '.join(failed)} regressed more "
              f"than {threshold:.0%} vs {baseline_path}", file=sys.stderr)
        return 1
    print(f"bench_regress: all gated benchmarks within {threshold:.0%} "
          "of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
