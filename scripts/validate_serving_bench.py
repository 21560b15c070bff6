#!/usr/bin/env python3
"""Schema check for bench_serving --json output.

The serving bench emits one row per offered-load point so the
throughput-vs-latency (p50/p99) curves stay machine-comparable across
PRs. CI runs this after the --smoke sweep to catch schema drift and
semantic nonsense: a utilization outside [0, 1], p99 below p50, rows
out of offered-load order, more completions than admissions, or a
saturated sweep whose cross-trace GPU<->PIM overlap no longer beats
the serial back-to-back baseline by the 1.5x the scheduler is built
to deliver.

Usage: validate_serving_bench.py [path]  (default: BENCH_serving.json)
Exits 0 when the document conforms, 1 with a message per violation.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from bench_common import NUMBER, check_bench_name, check_required, run

MIN_TOP_LOAD_SPEEDUP = 1.5

TOP_LEVEL_REQUIRED = {
    "bench": str,
    "streams": NUMBER,
    "requests_per_stream": NUMBER,
    "arrival_seed": NUMBER,
    "serial_capacity_rps": NUMBER,
    "peak_speedup_vs_serial": NUMBER,
    "rows": list,
}

ROW_REQUIRED = {
    "offered_rps": NUMBER,
    "throughput_rps": NUMBER,
    "serial_throughput_rps": NUMBER,
    "speedup_vs_serial": NUMBER,
    "p50_ms": NUMBER,
    "p99_ms": NUMBER,
    "mean_ms": NUMBER,
    "gpu_util": NUMBER,
    "pim_util": NUMBER,
    "batches": NUMBER,
    "batched_ops": NUMBER,
    "admitted": NUMBER,
    "rejected": NUMBER,
    "completed": NUMBER,
}


def validate(doc):
    errors = []
    if not check_required(doc, TOP_LEVEL_REQUIRED, errors):
        return errors

    check_bench_name(doc, ("serving", "serving_smoke"), errors)
    if doc["serial_capacity_rps"] <= 0:
        errors.append("serial_capacity_rps must be positive")
    if not doc["rows"]:
        errors.append("no load points")

    offered = []
    last_row_clean = False
    for i, row in enumerate(doc["rows"]):
        last_row_clean = check_required(row, ROW_REQUIRED, errors,
                                        f"row {i}")
        if not last_row_clean:
            continue
        offered.append(row["offered_rps"])

        for key in ("gpu_util", "pim_util"):
            if not 0.0 <= row[key] <= 1.0:
                errors.append(f"row {i}: {key}={row[key]} outside [0,1]")
        for key in ("offered_rps", "throughput_rps",
                    "serial_throughput_rps", "p50_ms", "p99_ms"):
            if row[key] <= 0:
                errors.append(f"row {i}: {key} must be positive")
        if row["p99_ms"] < row["p50_ms"]:
            errors.append(f"row {i}: p99_ms={row['p99_ms']} below "
                          f"p50_ms={row['p50_ms']}")
        # Batched ops count the members of fused dispatches, which
        # always cover at least two streams.
        if row["batches"] > 0 and row["batched_ops"] < 2 * row["batches"]:
            errors.append(f"row {i}: {row['batches']} batches but only "
                          f"{row['batched_ops']} batched ops")
        if row["completed"] > row["admitted"]:
            errors.append(f"row {i}: completed {row['completed']} "
                          f"exceeds admitted {row['admitted']}")
        if row["rejected"] < 0:
            errors.append(f"row {i}: rejected is negative")

    if offered != sorted(offered):
        errors.append("rows not sorted by offered_rps")
    if len(set(offered)) != len(offered):
        errors.append("duplicate offered_rps rows")

    # The headline claim: at the saturating top load point, cross-trace
    # overlap + batching must beat the serial baseline by >= 1.5x.
    if doc["rows"] and last_row_clean:
        top = doc["rows"][-1]
        if top["speedup_vs_serial"] < MIN_TOP_LOAD_SPEEDUP:
            errors.append(
                f"top-load speedup_vs_serial {top['speedup_vs_serial']} "
                f"below the {MIN_TOP_LOAD_SPEEDUP}x scheduler target")

    return errors


def summary(doc):
    return (f"{len(doc['rows'])} load points, peak speedup "
            f"{doc['peak_speedup_vs_serial']:.2f}x")


if __name__ == "__main__":
    sys.exit(run("validate_serving_bench", "BENCH_serving.json",
                 validate, summary))
