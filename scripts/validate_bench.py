#!/usr/bin/env python3
"""Schema and semantic checks for the gated bench --json documents.

Each document names its bench (the self-describing header of
obs::exportHeader), and that name picks the checks: a table of
required top-level keys, a table of required per-row keys, and the
bench's semantic checks. A renamed key silently breaks trend tooling
and the golden gates, so schema drift fails here first; the semantic
checks catch numbers no correct run can produce.

  ntt_kernels                  bench_ntt_kernels (CI only: ~11 s).
                               One row per (logN, backend): every
                               backend bitwise equal to the reference
                               oracle, lazy kernels faster than it.
  serving, serving_smoke       bench_serving. One row per offered
                               load: utilizations in [0, 1], p99 >=
                               p50, sorted loads, and cross-trace
                               GPU<->PIM overlap beating the serial
                               baseline by 1.5x at the top load.
  serving_faults(_smoke)       bench_serving_faults, the §16/§17
                               acceptance criteria: goodput floor
                               under faults, preemption identity, the
                               exact three-way rejection split and at
                               least one burn-rate alert.
  degradation(_smoke)          bench_degradation. One row per
                               permanent bank-failure rate:
                               quarantine, migration and per-cause GPU
                               fallback counters consistent with the
                               escalation ladder.

Usage: validate_bench.py <path-to-json> [<path-to-json> ...]
Exits 0 when every document conforms, 1 with a message per violation.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from bench_common import load_doc

NUMBER = (int, float)
TOOL = "validate_bench"


def check_required(obj, required, errors, where="top-level"):
    """Type-check `obj` against `required` ({key: type or type-tuple}).

    Appends one message per missing or mistyped key to `errors`.
    Returns True when every required key is present with the right
    type, so callers can skip semantic checks on a broken object.
    """
    clean = True
    for key, want in required.items():
        if key not in obj:
            errors.append(f"{where}: missing key '{key}'")
            clean = False
        elif not isinstance(obj[key], want):
            errors.append(f"{where}: '{key}' has type "
                          f"{type(obj[key]).__name__}")
            clean = False
    return clean


# --- bench_ntt_kernels ---------------------------------------------------

KNOWN_BACKENDS = ("reference", "scalar", "avx2", "avx512", "avx512ifma")


def ntt_top(doc, errors):
    if doc["bitwise_identical"] != "yes":
        errors.append("bitwise_identical is not 'yes' — a kernel "
                      "backend diverged from the reference oracle")
    if doc["best_backend"] not in KNOWN_BACKENDS:
        errors.append(f"unknown best_backend '{doc['best_backend']}'")
    if doc["fwd_speedup_at_2e16"] < 1.0:
        errors.append("fwd_speedup_at_2e16 below 1.0: lazy kernels "
                      "slower than the division-based reference")


def ntt_row(doc, i, row, errors):
    if row["backend"] not in KNOWN_BACKENDS:
        errors.append(f"row {i}: unknown backend '{row['backend']}'")
    if row["n"] != 2 ** int(row["logn"]):
        errors.append(f"row {i}: n={row['n']} != 2^{row['logn']}")
    for key in ("fwd_ns_per_butterfly", "inv_ns_per_butterfly",
                "fwd_transforms_per_sec", "fwd_speedup"):
        if row[key] <= 0:
            errors.append(f"row {i}: {key} must be positive")


def ntt_rows(doc, rows, errors):
    groups = {}
    for row in rows:
        groups.setdefault(int(row["logn"]), []).append(row["backend"])
    for logn, backends in sorted(groups.items()):
        if "reference" not in backends:
            errors.append(f"logN={logn}: no reference row")
        if not any(b != "reference" for b in backends):
            errors.append(f"logN={logn}: no lazy-backend row")
        dupes = {b for b in backends if backends.count(b) > 1}
        if dupes:
            errors.append(f"logN={logn}: duplicate backend rows "
                          f"{sorted(dupes)}")


def ntt_summary(doc):
    return (f"{len(doc['rows'])} rows, best backend "
            f"{doc['best_backend']}, "
            f"{doc['fwd_speedup_at_2e16']:.2f}x at 2^16")


NTT = {
    "top": {
        "bench": str,
        "prime_bits": NUMBER,
        "bitwise_identical": str,
        "fwd_speedup_at_2e16": NUMBER,
        "best_backend": str,
        "rows": list,
    },
    "row": {
        "logn": NUMBER,
        "n": NUMBER,
        "q": NUMBER,
        "backend": str,
        "fwd_ns_per_butterfly": NUMBER,
        "inv_ns_per_butterfly": NUMBER,
        "fwd_transforms_per_sec": NUMBER,
        "fwd_speedup": NUMBER,
    },
    "check_top": ntt_top,
    "check_row": ntt_row,
    "check_rows": ntt_rows,
    "summary": ntt_summary,
}


# --- bench_serving -------------------------------------------------------

MIN_TOP_LOAD_SPEEDUP = 1.5


def serving_top(doc, errors):
    if doc["serial_capacity_rps"] <= 0:
        errors.append("serial_capacity_rps must be positive")
    if not doc["rows"]:
        errors.append("no load points")


def serving_row(doc, i, row, errors):
    for key in ("gpu_util", "pim_util"):
        if not 0.0 <= row[key] <= 1.0:
            errors.append(f"row {i}: {key}={row[key]} outside [0,1]")
    for key in ("offered_rps", "throughput_rps", "serial_throughput_rps",
                "p50_ms", "p99_ms"):
        if row[key] <= 0:
            errors.append(f"row {i}: {key} must be positive")
    if row["p99_ms"] < row["p50_ms"]:
        errors.append(f"row {i}: p99_ms={row['p99_ms']} below "
                      f"p50_ms={row['p50_ms']}")
    # Batched ops count the members of fused dispatches, which always
    # cover at least two streams.
    if row["batches"] > 0 and row["batched_ops"] < 2 * row["batches"]:
        errors.append(f"row {i}: {row['batches']} batches but only "
                      f"{row['batched_ops']} batched ops")
    if row["completed"] > row["admitted"]:
        errors.append(f"row {i}: completed {row['completed']} "
                      f"exceeds admitted {row['admitted']}")
    if row["rejected"] < 0:
        errors.append(f"row {i}: rejected is negative")


def serving_rows(doc, rows, errors):
    check_sorted(rows, "offered_rps", errors)
    # The headline claim: at the saturating top load point, cross-trace
    # overlap + batching must beat the serial baseline by >= 1.5x
    # (checked when that row is well-formed).
    if rows and rows[-1] is doc["rows"][-1]:
        top = rows[-1]
        if top["speedup_vs_serial"] < MIN_TOP_LOAD_SPEEDUP:
            errors.append(
                f"top-load speedup_vs_serial {top['speedup_vs_serial']} "
                f"below the {MIN_TOP_LOAD_SPEEDUP}x scheduler target")


def serving_summary(doc):
    return (f"{len(doc['rows'])} load points, peak speedup "
            f"{doc['peak_speedup_vs_serial']:.2f}x")


SERVING = {
    "top": {
        "bench": str,
        "streams": NUMBER,
        "requests_per_stream": NUMBER,
        "arrival_seed": NUMBER,
        "serial_capacity_rps": NUMBER,
        "peak_speedup_vs_serial": NUMBER,
        "rows": list,
    },
    "row": {
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
    },
    "check_top": serving_top,
    "check_row": serving_row,
    "check_rows": serving_rows,
    "summary": serving_summary,
}


# --- bench_serving_faults ------------------------------------------------

MIN_GOODPUT_FLOOR = 0.8
SCENARIOS = ("healthy", "transient", "degraded")


def faults_top(doc, errors):
    if doc["serial_capacity_rps"] <= 0:
        errors.append("serial_capacity_rps must be positive")
    if not doc["rows"]:
        errors.append("no sweep rows")
    if doc["causes_partition_ok"] != 1:
        errors.append("bench-side cause-partition check failed")
    # The sweep must exercise all three rejection paths somewhere.
    for key in ("sweep_rejected_queue_full",
                "sweep_rejected_rate_limited", "sweep_shed_deadline"):
        if doc[key] < 1:
            errors.append(f"{key} is {doc[key]}; the sweep never "
                          "exercised this rejection cause")
    # The burn-rate monitor must fire at least once across the sweep
    # (the overloaded and degraded cells burn error budget far above
    # the 1x threshold).
    if doc["sweep_alerts_fired"] < 1:
        errors.append("sweep_alerts_fired is 0; the SLO burn-rate "
                      "monitor never fired")
    # Preemption never perturbs any tenant's computation.
    if doc["preemptions_observed"] < 1:
        errors.append("identity experiment observed no preemptions")
    if doc["preempt_identical"] != 1:
        errors.append("preempted results diverged from the "
                      "unpreempted schedule")
    # Goodput with BER + one quarantined bank stays within 20% of the
    # healthy baseline at moderate load.
    if doc["goodput_floor_ratio"] < MIN_GOODPUT_FLOOR:
        errors.append(
            f"goodput_floor_ratio {doc['goodput_floor_ratio']} below "
            f"the {MIN_GOODPUT_FLOOR} resilience target")


def faults_row(doc, i, row, errors):
    if row["scenario"] not in SCENARIOS:
        errors.append(f"row {i}: unknown scenario '{row['scenario']}'")
    if not 0.0 <= row["availability"] <= 1.0:
        errors.append(f"row {i}: availability {row['availability']} "
                      "outside [0,1]")
    for key in ("offered_rps", "p50_ms", "p99_ms"):
        if row[key] <= 0:
            errors.append(f"row {i}: {key} must be positive")
    if row["p99_ms"] < row["p50_ms"]:
        errors.append(f"row {i}: p99_ms={row['p99_ms']} below "
                      f"p50_ms={row['p50_ms']}")
    # An alert needs at least one tick in the firing state.
    if row["alerts_fired"] > 0 and row["alert_ticks_firing"] < 1:
        errors.append(f"row {i}: alerts fired without any tick in the "
                      "firing state")
    # The causes partition `rejected`.
    split = (row["rejected_queue_full"] + row["rejected_rate_limited"] +
             row["shed_deadline"])
    if split != row["rejected"]:
        errors.append(f"row {i}: rejection causes sum to {split}, "
                      f"rejected is {row['rejected']}")
    # Conservation: every request resolves exactly once.
    total = doc["streams"] * doc["requests_per_stream"]
    if row["admitted"] + row["rejected"] != total:
        errors.append(f"row {i}: admitted+rejected "
                      f"{row['admitted'] + row['rejected']} != offered "
                      f"{total}")
    if row["completed"] != row["admitted"]:
        errors.append(f"row {i}: completed {row['completed']} != "
                      f"admitted {row['admitted']}")
    if row["deadline_met"] > row["completed"]:
        errors.append(f"row {i}: deadline_met exceeds completed")
    # The degraded scenario must actually re-price mid-serve.
    if row["scenario"] == "degraded" and row["reprice_events"] < 1:
        errors.append(f"row {i}: degraded scenario never re-priced")


def faults_rows(doc, rows, errors):
    seen = {row["scenario"] for row in rows}
    if seen != set(SCENARIOS):
        errors.append(f"sweep covers {sorted(seen)}, want "
                      f"{sorted(SCENARIOS)}")


def faults_summary(doc):
    return (f"{len(doc['rows'])} rows, goodput floor "
            f"{doc['goodput_floor_ratio']:.3f}, "
            f"{int(doc['preemptions_observed'])} preemptions identical, "
            f"{int(doc['sweep_alerts_fired'])} alerts fired")


SERVING_FAULTS = {
    "top": {
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
    },
    "row": {
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
    },
    "check_top": faults_top,
    "check_row": faults_row,
    "check_rows": faults_rows,
    "summary": faults_summary,
}


# --- bench_degradation ---------------------------------------------------

def degradation_top(doc, errors):
    # The campaign is meaningless with the escalation ladder off.
    for key in ("config.health_enabled", "config.checkpoint_enabled",
                "config.checksum_enabled"):
        if doc[key] != "true":
            errors.append(f"{key} is '{doc[key]}' — the campaign must "
                          "run with the full escalation ladder on")
    if not doc["rows"]:
        errors.append("no campaign rows")


def degradation_row(doc, i, row, errors):
    for key in ("availability", "capacity_fraction", "pim_offline_rate"):
        if not 0.0 <= row[key] <= 1.0:
            errors.append(f"row {i}: {key}={row[key]} outside [0,1]")
    if row["throughput_vs_healthy"] <= 0:
        errors.append(f"row {i}: throughput_vs_healthy must be positive")
    for key in ("failed_banks", "quarantined_banks", "migrations",
                "rollbacks", "gpu_fallbacks_retry_exhausted",
                "gpu_fallbacks_uncheckpointed",
                "gpu_fallbacks_capacity_floor"):
        if row[key] < 0:
            errors.append(f"row {i}: {key} is negative")
    # Quarantine can only remove banks that actually failed, and a
    # quarantine implies at least one migration.
    if row["quarantined_banks"] > row["failed_banks"]:
        errors.append(f"row {i}: quarantined more banks "
                      f"({row['quarantined_banks']}) than failed "
                      f"({row['failed_banks']})")
    if row["quarantined_banks"] > 0 and row["migrations"] == 0:
        errors.append(f"row {i}: banks quarantined with zero migrations")
    if row["permanent_bank_rate"] == 0:
        for key in ("failed_banks", "quarantined_banks", "migrations",
                    "gpu_fallbacks_capacity_floor"):
            if row[key] != 0:
                errors.append(f"row {i}: clean cell has nonzero "
                              f"{key}={row[key]}")
        if row["availability"] != 1:
            errors.append(f"row {i}: clean cell availability "
                          f"{row['availability']} != 1")
    # Offline trials redirect PIM segments to the GPU, so a fully
    # offline cell must report capacity-floor fallbacks.
    if (row["pim_offline_rate"] == 1
            and row["gpu_fallbacks_capacity_floor"] == 0):
        errors.append(f"row {i}: PIM offline in every trial but no "
                      "capacity-floor GPU fallbacks")


def degradation_rows(doc, rows, errors):
    check_sorted(rows, "permanent_bank_rate", errors)


def degradation_summary(doc):
    worst = doc["rows"][-1]
    return (f"{len(doc['rows'])} rows, worst cell rate "
            f"{worst['permanent_bank_rate']} -> availability "
            f"{worst['availability']:.2f}, capacity "
            f"{worst['capacity_fraction']:.3f}")


DEGRADATION = {
    "top": {
        "bench": str,
        "trials": NUMBER,
        "repeats": NUMBER,
        "fault_seed": NUMBER,
        "config.health_enabled": str,
        "config.checkpoint_enabled": str,
        "config.checksum_enabled": str,
        "rows": list,
    },
    "row": {
        "permanent_bank_rate": NUMBER,
        "failed_banks": NUMBER,
        "quarantined_banks": NUMBER,
        "migrations": NUMBER,
        "rollbacks": NUMBER,
        "availability": NUMBER,
        "capacity_fraction": NUMBER,
        "throughput_vs_healthy": NUMBER,
        "pim_offline_rate": NUMBER,
        "gpu_fallbacks_retry_exhausted": NUMBER,
        "gpu_fallbacks_uncheckpointed": NUMBER,
        "gpu_fallbacks_capacity_floor": NUMBER,
    },
    "check_top": degradation_top,
    "check_row": degradation_row,
    "check_rows": degradation_rows,
    "summary": degradation_summary,
}


# --- driver --------------------------------------------------------------

def check_sorted(rows, key, errors):
    """Rows must be in strictly ascending `key` order."""
    values = [row[key] for row in rows]
    if values != sorted(values):
        errors.append(f"rows not sorted by {key}")
    if len(set(values)) != len(values):
        errors.append(f"duplicate {key} rows")


SCHEMAS = {
    "ntt_kernels": NTT,
    "serving": SERVING,
    "serving_smoke": SERVING,
    "serving_faults": SERVING_FAULTS,
    "serving_faults_smoke": SERVING_FAULTS,
    "degradation": DEGRADATION,
    "degradation_smoke": DEGRADATION,
}


def validate(doc):
    """Every violation in `doc`, as messages; empty when it conforms."""
    schema = SCHEMAS.get(doc.get("bench"))
    if schema is None:
        return [f"bench is '{doc.get('bench')}', want one of "
                f"{sorted(SCHEMAS)}"]
    errors = []
    if not check_required(doc, schema["top"], errors):
        return errors
    schema["check_top"](doc, errors)
    clean_rows = []
    for i, row in enumerate(doc["rows"]):
        if not check_required(row, schema["row"], errors, f"row {i}"):
            continue
        schema["check_row"](doc, i, row, errors)
        clean_rows.append(row)
    schema["check_rows"](doc, clean_rows, errors)
    return errors


def main(paths):
    if not paths:
        print(f"usage: {TOOL}.py <path-to-json> [...]", file=sys.stderr)
        return 2
    status = 0
    for path in paths:
        doc = load_doc(path, TOOL)
        if doc is None:
            status = 1
            continue
        errors = validate(doc)
        for err in errors:
            print(f"{TOOL}: {path}: {err}", file=sys.stderr)
        if errors:
            status = 1
        else:
            summary = SCHEMAS[doc["bench"]]["summary"](doc)
            print(f"{TOOL}: OK: {path} ({doc['bench']}: {summary})")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
