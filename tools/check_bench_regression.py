#!/usr/bin/env python3
"""Hot-path microbench regression gates.

Compares counters of a fresh Release run against the committed
BENCH_f2_pipeline.json baseline and fails (exit 1) on a >2x regression.
The 2x margin absorbs host differences between the recording machine and
CI runners while still catching the failure modes these guard against.

Five gates, each on one named arm:

* BM_DecodeMicro lines_per_s, packed arm (packed:1) — the production
  bit-packed decode path. Canary for per-line allocation, copying, or
  byte-per-bit extraction sneaking back into the hot path.
* BM_QueueHop items_per_s, lock-free singleton-batch arm
  (spsc:1/batch:1) — the SPSC ring stage-to-stage hand-off. Canary for
  a lock, syscall, or unconditional wake-up sneaking into the push/pop
  fast path.
* BM_QueryServing queries_per_s, single-reader finished-archive arm
  (readers:1/live:0) — the historical serving tier's fan-out/scan/merge
  path. Canary for index pruning breaking (every query degenerating to
  a full decode) or a lock sneaking into the snapshot read path. The
  concurrent/live arms are informational only: their numbers measure
  scheduler contention on small hosts, not the serving tier.
* BM_AnomalyStage detectors_per_s, enabled arm (anomaly:1) — the
  integrity scorer + behaviour-change detector invocation rate. Canary
  for an allocation or a quadratic scan sneaking into the per-report /
  per-point path of the anomaly & integrity stage.
* BM_NetIngest lines_per_s, NMEA-line arm (frame:0) — loopback TCP
  replay through the epoll ingest server into the pipeline. Canary for
  a per-byte copy, per-frame allocation, or busy-spin sneaking into
  the read-loop / frame-decode / drain hand-off path.

Usage:
  check_bench_regression.py <baseline.json> <current.json> [min_ratio]

Both files are Google Benchmark JSON (--benchmark_format=json /
--benchmark_out). A gated arm missing from the baseline is an error:
the committed baseline records every gated arm. Current runs that
merely filtered a benchmark out skip that gate with a notice (only
gates whose benchmark ran are enforced, and at least one must have).
"""

import json
import sys


def load_benchmarks(path):
    with open(path) as f:
        return json.load(f).get("benchmarks", [])


def decode_lines_per_s(benchmarks):
    for bench in benchmarks:
        name = bench.get("name", "")
        if not name.startswith("BM_DecodeMicro") or "lines_per_s" not in bench:
            continue
        if "packed:1" in name:
            return float(bench["lines_per_s"])
    return None


def queue_hop_items_per_s(benchmarks):
    # The singleton-batch arm: the worst case for hand-off overhead.
    for bench in benchmarks:
        name = bench.get("name", "")
        if not name.startswith("BM_QueueHop") or "items_per_s" not in bench:
            continue
        if "spsc:1" not in name:
            continue
        if "batch:1/" in name or name.endswith("batch:1"):
            return float(bench["items_per_s"])
    return None


def query_serving_queries_per_s(benchmarks):
    # The uncontended single-reader arm against the finished archive: the
    # only arm whose number is a property of the serving tier rather than
    # of host scheduling.
    for bench in benchmarks:
        name = bench.get("name", "")
        if not name.startswith("BM_QueryServing") or \
                "queries_per_s" not in bench:
            continue
        if "readers:1/" in name and "live:0" in name:
            return float(bench["queries_per_s"])
    return None


def anomaly_stage_detectors_per_s(benchmarks):
    # Gate the enabled arm (anomaly:1) — the combined integrity-scorer +
    # behaviour-change-detector invocation rate. The off arm is the
    # pre-stage baseline and carries no detector work to gate.
    for bench in benchmarks:
        name = bench.get("name", "")
        if not name.startswith("BM_AnomalyStage") or \
                "detectors_per_s" not in bench:
            continue
        if "anomaly:1" in name:
            return float(bench["detectors_per_s"])
    return None


def net_ingest_lines_per_s(benchmarks):
    # Gate the frame:0 (re-armored NMEA line) arm — the production wire
    # shape; the packed arm is informational (it measures the sender-side
    # de-armoring saving, not the server).
    for bench in benchmarks:
        name = bench.get("name", "")
        if not name.startswith("BM_NetIngest") or \
                "lines_per_s" not in bench:
            continue
        if "frame:0" in name:
            return float(bench["lines_per_s"])
    return None


GATES = [
    ("decode microbench", decode_lines_per_s, "lines/s"),
    ("queue hop (spsc)", queue_hop_items_per_s, "items/s"),
    ("query serving", query_serving_queries_per_s, "queries/s"),
    ("anomaly stage", anomaly_stage_detectors_per_s, "detections/s"),
    ("net ingest", net_ingest_lines_per_s, "lines/s"),
]


def main(argv):
    if len(argv) < 3:
        print(__doc__)
        return 2
    baseline_path, current_path = argv[1], argv[2]
    min_ratio = float(argv[3]) if len(argv) > 3 else 0.5

    baseline_benchmarks = load_benchmarks(baseline_path)
    current_benchmarks = load_benchmarks(current_path)

    failed = False
    gated = 0
    for label, extract, unit in GATES:
        baseline = extract(baseline_benchmarks)
        if baseline is None:
            print(f"error: {baseline_path} has no gated {label} entry")
            failed = True
            continue
        current = extract(current_benchmarks)
        if current is None:
            print(f"notice: {current_path} has no {label} entry "
                  "(filtered out of this run); skipping that gate")
            continue
        gated += 1
        ratio = current / baseline
        print(f"{label}: baseline {baseline:,.0f} {unit}, "
              f"current {current:,.0f} {unit} ({ratio:.2f}x baseline, "
              f"gate at {min_ratio:.2f}x)")
        if ratio < min_ratio:
            print(f"FAIL: {label} regressed beyond the gate")
            failed = True
    if gated == 0:
        print(f"error: no gated benchmark present in both {baseline_path} "
              f"and {current_path} — did the benchmark run?")
        return 1
    if failed:
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
