#!/usr/bin/env python3
"""Builds hcep_bench from this checkout and runs it, one process per workload.

    python3 bench/hcep_bench/run.py --workload open_loop --seed 1 --seconds 10 --trace 0
    python3 bench/hcep_bench/run.py                 # every workload, untraced
    python3 bench/hcep_bench/run.py --trace 1       # every workload, traced
    python3 bench/hcep_bench/run.py --ladder        # open_loop ladder table

With --workload the binary's output is passed through unchanged: one
`name value unit` line per metric and, as the last line, a JSON object
with the keys correct, attempted, failed and metrics. Without it every
workload runs in its own process and a JSON document collecting their
results is printed last. The build goes to $CARGO_TARGET_DIR (default
.bench_build at the checkout root); traced runs write Chrome trace JSON
to its traces/ directory. Exit status is nonzero when the build fails or
any check fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
WORKLOADS = [
    "open_loop",
    "overload_retry",
    "power_gated_observed",
    "fleet_hybrid",
    "sharded_scaling",
    "sweep_pareto",
]
RUN_TIMEOUT_S = 170
# The open_loop ladder: (step, step it adds to, what it adds).
LADDER = [
    ("generate", None, "`ArrivalProcess::next` into a null sink"),
    ("admission", "generate", "`TokenBucket::try_acquire` per arrival (accept path)"),
    ("des_replay", "admission", "`des::Simulator`: arrival + terminal event per request, no-op callbacks"),
    ("simulate", "des_replay", "`simulate_traffic`: dispatch, service/energy accounting, latency recording, finalize"),
    ("frozen_control", "simulate", "frozen controller ticking every 50 requests"),
    ("stream", "frozen_control", "stream collector, 256 windows"),
    ("record", "stream", "`record_requests`"),
    ("fed_single_site", "stream", "the stream step through `simulate_fleet` with one site (no records)"),
]


def build(build_dir):
    """Configures and builds the hcep_bench target; logs to stderr."""
    subprocess.run(
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        check=True, stdout=sys.stderr, stderr=sys.stderr, cwd=ROOT)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "hcep_bench", "-j",
         str(min(4, os.cpu_count() or 1))],
        check=True, stdout=sys.stderr, stderr=sys.stderr, cwd=ROOT)
    return os.path.join(build_dir, "hcep_bench")


def run_one(binary, workload, args, trace_dir):
    """Runs one workload in its own process; returns (exit code, stdout lines)."""
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(trace_dir, f"{workload}-seed{args.seed}.json")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    return proc.returncode, proc.stdout.splitlines()


def ladder_table(lines):
    """Markdown table of the ladder rows of a traced open_loop run."""
    values = {}
    for line in lines:
        parts = line.split()
        if len(parts) >= 3 and parts[0].startswith("ladder."):
            values[parts[0]] = float(parts[1])
    out = ["| step | adds | ns/request | step ns/request | bytes/request |",
           "|---|---|---:|---:|---:|"]
    for step, base, adds in LADDER:
        ns = values[f"ladder.{step}.ns_per_req"]
        delta = ns - (values[f"ladder.{base}.ns_per_req"] if base else 0.0)
        nbytes = values[f"ladder.{step}.bytes_per_req"]
        out.append(f"| {step} | {adds} | {ns:.0f} | {delta:+.0f} | {nbytes:.1f} |")
    return "\n".join(out)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=[0, 1])
    parser.add_argument("--ladder", action="store_true",
                        help="print the open_loop ladder as a Markdown table")
    args = parser.parse_args()
    if args.ladder:
        args.workload, args.trace = "open_loop", 1

    build_dir = os.path.join(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"),
        "hcep_bench")
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    trace_dir = os.path.join(build_dir, "traces")

    if args.workload:
        code, lines = run_one(binary, args.workload, args, trace_dir)
        if args.ladder and code == 0:
            print(ladder_table(lines))
        else:
            for line in lines:
                print(line)
        return code

    status = 0
    results = {}
    for workload in WORKLOADS:
        code, lines = run_one(binary, workload, args, trace_dir)
        status = max(status, code)
        print(f"# {workload}")
        for line in lines[:-1]:
            print(line)
        try:
            results[workload] = json.loads(lines[-1])
        except (IndexError, ValueError):
            results[workload] = None
            status = max(status, 1)
    print(json.dumps({"seed": args.seed, "trace": args.trace,
                      "workloads": results}))
    return status


if __name__ == "__main__":
    sys.exit(main())
