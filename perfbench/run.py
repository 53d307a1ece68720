#!/usr/bin/env python3
"""End-to-end benchmark of the ParSecureML job API.

Run from the repository root:

    python3 perfbench/run.py --workload serve-mlp --seed 1 --seconds 40 --trace 0

Builds perfbench/ (which compiles the library from src/) into .bench_build,
runs the psml_perfbench load generator and prints, as the last stdout line,
one JSON object {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are BENCHMARK.json's end_to_end list; with --trace 1
they are its per_layer list. The line before it carries run details that are
reported, not gated: sample counts, error rate, accuracy gap, the
rebuilt job's checks and the machine-speed probe.

A run is PROCESSES fresh processes run one after another, each timing jobs
for an equal share of --seconds. Each process calibrates the adaptive
CPU/device dispatcher anew, and that calibration (timed on a possibly busy
host) decides which GEMM path, and so which speed, CPU cost and memory
footprint, the process gets. Every figure is therefore computed per process
first and then combined as ACROSS_PROCESSES says: the median set-up time,
and otherwise the best process, so that one process on the other path, or
caught in a burst of host load, does not move it. Count metrics are totals
over all jobs. The gated metrics are set-up time, CPU time, byte counts and
memory; the wall-clock figures are reported with --trace 1, because other
guests on a shared host move them far more than any bound. The last process
also rebuilds its last job through the traced replay and checks it against
the real job; with --trace 1 it reports the per-layer rows from that replay.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "psml_perfbench")
PROCESSES = 5
BUILD_TIMEOUT_S = 850
RUN_BUDGET_S = 165  # all processes of a run, after the build


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", jobs],
    ):
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"build step failed: {' '.join(cmd)}")


def run_binary(args, process, seconds, last, deadline):
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds),
           "--trace", str(args.trace if last else 0),
           "--rebuild", "1" if last else "0",
           "--process", str(process)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"psml_perfbench exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("psml_perfbench printed no result")
    return json.loads(lines[-1])


def quantile(values, q):
    """The q-th decile cut of `values` as statistics.quantiles computes it."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10)[q - 1]


def process_metrics(raw):
    """One process's figures over its timed jobs."""
    walls = raw["wall_s"]
    per_job_samples = raw["samples"] / len(walls)
    return {
        "setup_s": raw["setup_s"],
        "cpu_ms_per_sample": statistics.median(raw["cpu_s"]) * 1e3
                             / per_job_samples,
        "peak_rss_mib": statistics.median(raw["peak_rss_mib"]),
        "samples_per_s": raw["samples"] / sum(walls),
        "online_s.p50": statistics.median(raw["online_s"]),
        "offline_s.p50": statistics.median(raw["offline_s"]),
        "request_ms.p50": statistics.median(walls) * 1e3,
        "request_ms.p90": quantile(walls, 9) * 1e3,
    }


# How each per-process figure becomes the run's figure. Set-up is timed in
# every process, and its median is reported. The other figures take the
# best process: other load on the host, and a calibration that sent the
# GEMMs to the slower device path, only ever make a process slower or larger.
ACROSS_PROCESSES = {
    "setup_s": statistics.median,
    "cpu_ms_per_sample": min,
    "peak_rss_mib": min,
    "samples_per_s": max,
    "online_s.p50": min,
    "offline_s.p50": min,
    "request_ms.p50": min,
    "request_ms.p90": min,
}


def loop_metrics(raws, per_process):
    """The run's figures from every process's set-up and timed loop."""
    values = {key: combine(p[key] for p in per_process)
              for key, combine in ACROSS_PROCESSES.items()}
    samples = sum(r["samples"] for r in raws)
    values["wire_bytes_per_sample"] = sum(r["wire_bytes"] for r in raws) / samples
    values["offline_bytes_per_sample"] = (
        sum(r["offline_bytes"] for r in raws) / samples)
    return values


def traced_metrics(raws):
    values = dict(raws[-1]["layers"])
    for key in ("calib.gemm1_gflops", "calib.gemmN_gflops"):
        values[key] = statistics.median(r[key] for r in raws)
    return values


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        raise SystemExit(f"unknown workload {args.workload}")

    build()
    share = args.seconds / PROCESSES
    deadline = time.monotonic() + RUN_BUDGET_S
    raws = [run_binary(args, i, share, i == PROCESSES - 1, deadline)
            for i in range(PROCESSES)]
    if any(not r["wall_s"] for r in raws):
        raise RuntimeError("a process completed no timed job")
    attempted = int(sum(r["attempted"] for r in raws))
    failed = int(sum(r["failed"] for r in raws))
    rebuilt = raws[-1]
    if "trace_mismatch" not in rebuilt:
        raise RuntimeError("the rebuilt job was not checked")
    mismatch = rebuilt["trace_mismatch"]
    if mismatch:
        log(f"traced run differs from the real job: {mismatch}")

    per_process = [process_metrics(r) for r in raws]
    values = loop_metrics(raws, per_process)
    if args.trace:
        values.update(traced_metrics(raws))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            raise RuntimeError(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}

    print(json.dumps({"info": {
        "workload": args.workload,
        "processes": PROCESSES,
        "request_ms.samples": [len(r["wall_s"]) for r in raws],
        "error_rate": failed / attempted,
        "max_accuracy_gap": max(r["max_accuracy_gap"] for r in raws),
        "trace_mismatch": mismatch,
        "row_mismatch_share": rebuilt["row_mismatch_share"],
        "logit_error": rebuilt["logit_error"],
        "per_process": {key: [p[key] for p in per_process]
                        for key in ACROSS_PROCESSES},
        "calib.gemm1_gflops": [r["calib.gemm1_gflops"] for r in raws],
        "calib.gemmN_gflops": [r["calib.gemmN_gflops"] for r in raws],
        "dispatch_device_share": [r["dispatch_device_share"] for r in raws],
    }}))
    print(json.dumps({
        "correct": (failed == 0 and not mismatch and
                    not rebuilt["output_check_failed"]),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    try:
        main()
    except (RuntimeError, OSError, subprocess.TimeoutExpired,
            json.JSONDecodeError, KeyError) as e:
        log(f"error: {e}")
        sys.exit(1)
