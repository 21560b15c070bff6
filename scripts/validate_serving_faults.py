#!/usr/bin/env python3
"""Schema + acceptance check for bench_serving_faults --json output.

The chaos bench sweeps fault scenarios x offered load with the full
SLO stack (deadline classes, per-tenant rate limiting, priority
preemption, mid-serve degradation re-pricing). CI runs this after the
--smoke sweep to gate the §16/§17 acceptance criteria:

  1. goodput_floor_ratio >= 0.8 — goodput with BER + one quarantined
     bank stays within 20% of the healthy baseline at moderate load;
  2. preempt_identical == 1 — a preempted run's results (energy,
     traffic, fault counters, per-step durations) match the
     unpreempted schedule exactly;
  3. every row's rejected splits exactly into queue-full +
     rate-limited + deadline-shed, and the sweep exercises all three
     causes at least once;
  4. sweep_alerts_fired >= 1 — the SLO burn-rate monitor sees the
     degraded sweep burn its deadline-met error budget and fires.

Usage: validate_serving_faults.py [path]
       (default: BENCH_serving_faults.json)
Exits 0 when the document conforms, 1 with a message per violation.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from bench_common import NUMBER, check_bench_name, check_required, run

MIN_GOODPUT_FLOOR = 0.8

TOP_LEVEL_REQUIRED = {
    "bench": str,
    "streams": NUMBER,
    "requests_per_stream": NUMBER,
    "arrival_seed": NUMBER,
    "serial_capacity_rps": NUMBER,
    "goodput_floor_ratio": NUMBER,
    "preempt_identical": NUMBER,
    "preemptions_observed": NUMBER,
    "causes_partition_ok": NUMBER,
    "sweep_rejected_queue_full": NUMBER,
    "sweep_rejected_rate_limited": NUMBER,
    "sweep_shed_deadline": NUMBER,
    "sweep_alerts_fired": NUMBER,
    "sweep_alert_ticks_firing": NUMBER,
    "rows": list,
}

ROW_REQUIRED = {
    "scenario": str,
    "ber": NUMBER,
    "permanent_banks": NUMBER,
    "load_multiplier": NUMBER,
    "offered_rps": NUMBER,
    "availability": NUMBER,
    "goodput_rps": NUMBER,
    "throughput_rps": NUMBER,
    "p50_ms": NUMBER,
    "p99_ms": NUMBER,
    "deadline_met": NUMBER,
    "admitted": NUMBER,
    "completed": NUMBER,
    "rejected": NUMBER,
    "rejected_queue_full": NUMBER,
    "rejected_rate_limited": NUMBER,
    "shed_deadline": NUMBER,
    "preemptions": NUMBER,
    "preemption_overhead_ns": NUMBER,
    "reprice_events": NUMBER,
    "alerts_fired": NUMBER,
    "alert_ticks_firing": NUMBER,
    "tenant_retries": NUMBER,
    "tenant_gpu_fallbacks": NUMBER,
}

SCENARIOS = ("healthy", "transient", "degraded")


def validate(doc):
    errors = []
    if not check_required(doc, TOP_LEVEL_REQUIRED, errors):
        return errors

    check_bench_name(doc, ("serving_faults", "serving_faults_smoke"),
                     errors)
    if doc["serial_capacity_rps"] <= 0:
        errors.append("serial_capacity_rps must be positive")
    if not doc["rows"]:
        errors.append("no sweep rows")

    total = doc["streams"] * doc["requests_per_stream"]
    seen_scenarios = set()
    for i, row in enumerate(doc["rows"]):
        if not check_required(row, ROW_REQUIRED, errors, f"row {i}"):
            continue
        seen_scenarios.add(row["scenario"])

        if row["scenario"] not in SCENARIOS:
            errors.append(f"row {i}: unknown scenario "
                          f"'{row['scenario']}'")
        if not 0.0 <= row["availability"] <= 1.0:
            errors.append(f"row {i}: availability "
                          f"{row['availability']} outside [0,1]")
        for key in ("offered_rps", "p50_ms", "p99_ms"):
            if row[key] <= 0:
                errors.append(f"row {i}: {key} must be positive")
        if row["p99_ms"] < row["p50_ms"]:
            errors.append(f"row {i}: p99_ms={row['p99_ms']} below "
                          f"p50_ms={row['p50_ms']}")
        # An alert needs at least one tick in the firing state.
        if row["alerts_fired"] > 0 and row["alert_ticks_firing"] < 1:
            errors.append(f"row {i}: alerts fired without any tick in "
                          "the firing state")
        # Acceptance criterion 3: the causes partition `rejected`.
        split = (row["rejected_queue_full"] +
                 row["rejected_rate_limited"] + row["shed_deadline"])
        if split != row["rejected"]:
            errors.append(
                f"row {i}: rejection causes sum to {split}, "
                f"rejected is {row['rejected']}")
        # Conservation: every request resolves exactly once.
        if row["admitted"] + row["rejected"] != total:
            errors.append(
                f"row {i}: admitted+rejected "
                f"{row['admitted'] + row['rejected']} != offered {total}")
        if row["completed"] != row["admitted"]:
            errors.append(f"row {i}: completed {row['completed']} != "
                          f"admitted {row['admitted']}")
        if row["deadline_met"] > row["completed"]:
            errors.append(f"row {i}: deadline_met exceeds completed")
        # The degraded scenario must actually re-price mid-serve.
        if row["scenario"] == "degraded" and row["reprice_events"] < 1:
            errors.append(f"row {i}: degraded scenario never re-priced")

    if seen_scenarios != set(SCENARIOS):
        errors.append(f"sweep covers {sorted(seen_scenarios)}, want "
                      f"{sorted(SCENARIOS)}")
    if doc["causes_partition_ok"] != 1:
        errors.append("bench-side cause-partition check failed")
    # The sweep must exercise all three rejection paths somewhere.
    for key in ("sweep_rejected_queue_full",
                "sweep_rejected_rate_limited", "sweep_shed_deadline"):
        if doc[key] < 1:
            errors.append(f"{key} is {doc[key]}; the sweep never "
                          "exercised this rejection cause")

    # Acceptance criterion 4: the burn-rate monitor must fire at least
    # once across the sweep (the overloaded and degraded cells burn
    # error budget far above the 1x threshold).
    if doc["sweep_alerts_fired"] < 1:
        errors.append("sweep_alerts_fired is 0; the SLO burn-rate "
                      "monitor never fired")

    # Acceptance criterion 2: preemption never perturbs any tenant's
    # computation.
    if doc["preemptions_observed"] < 1:
        errors.append("identity experiment observed no preemptions")
    if doc["preempt_identical"] != 1:
        errors.append("preempted results diverged from the "
                      "unpreempted schedule")

    # Acceptance criterion 1: degraded goodput floor at moderate load.
    if doc["goodput_floor_ratio"] < MIN_GOODPUT_FLOOR:
        errors.append(
            f"goodput_floor_ratio {doc['goodput_floor_ratio']} below "
            f"the {MIN_GOODPUT_FLOOR} resilience target")

    return errors


def summary(doc):
    return (f"{len(doc['rows'])} rows, goodput floor "
            f"{doc['goodput_floor_ratio']:.3f}, "
            f"{int(doc['preemptions_observed'])} preemptions identical, "
            f"{int(doc['sweep_alerts_fired'])} alerts fired")


if __name__ == "__main__":
    sys.exit(run("validate_serving_faults", "BENCH_serving_faults.json",
                 validate, summary))
