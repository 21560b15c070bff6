#!/usr/bin/env python3
"""Validate Anaheim observability exports (stdlib only).

The one schema checker for the documents the benches emit: ctest runs
it on the smoke runs' files, and perfbench/run.py on its traced run.

Usage:
    validate_trace.py --trace TRACE.json [--metrics METRICS.json]
                      [--require-lane LANE ...]
    validate_trace.py --self-test

Checks the Chrome trace-event document the benches emit via --trace:
  - parses as a JSON object with a "traceEvents" array of objects
  - every event has string "ph"/"name" and numeric "pid"/"tid"
  - only "M" (metadata) and "X" (complete) phases appear
  - every "X" event has numeric ts/dur >= 0 and, if any, object "args"
  - at least one "X" event exists, and every "X" event's pid carries a
    process_name metadata record (so Perfetto shows named tracks)
  - the simulated run contributes both a GPU and a PIM lane (plus any
    --require-lane)
and, when given, the --metrics JSON dump:
  - is a JSON object carrying the self-describing header
    (schema_version, git_sha, build_type, threads) as strings
  - has a non-empty "metrics" array of objects, each with a string
    name, a kind ("counter" or "gauge") and a numeric value
  - when a "timeseries" section is present (serving runs with a
    telemetry tick), every series is an object with a name, a positive
    tick_ns, and point objects with numeric stats in start_ns order,
    non-negative counts, and p99 >= p50

Exits 0 when valid, 1 with a "validate_trace: FAIL:" message on the
first violation, 2 on usage errors. --self-test feeds the checks a
good trace, a good metrics document and a set of broken ones, and
exits 1 if any verdict is wrong.
"""

import argparse
import copy
import json
import sys

NUMBER = (int, float)
HEADER = ("schema_version", "git_sha", "build_type", "threads")
POINT_STATS = ("start_ns", "count", "sum", "min", "max", "p50", "p99",
               "rate_per_s")


class Invalid(Exception):
    """A schema violation; main() reports it and exits 1."""


def fail(msg):
    raise Invalid(msg)


def parse(text, where):
    try:
        doc = json.loads(text)
    except ValueError as e:
        fail(f"{where}: {e}")
    if not isinstance(doc, dict):
        fail(f"{where}: document is not a JSON object")
    return doc


def load(path):
    try:
        with open(path) as f:
            text = f.read()
    except (OSError, ValueError) as e:
        fail(f"{path}: {e}")
    return parse(text, path)


def check_trace(doc, where, require_lanes=()):
    """Checks a parsed trace document; returns the OK summary."""
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        fail(f"{where}: missing 'traceEvents' array")

    named_pids = set()
    lanes = set()
    complete = 0
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            fail(f"{where}: event {i} is not an object")
        ph = event.get("ph")
        if not isinstance(ph, str):
            fail(f"{where}: event {i} missing string 'ph'")
        if not isinstance(event.get("name"), str):
            fail(f"{where}: event {i} missing string 'name'")
        for key in ("pid", "tid"):
            if not isinstance(event.get(key), NUMBER):
                fail(f"{where}: event {i} missing numeric '{key}'")
        if ph == "M":
            if event["name"] == "process_name":
                named_pids.add(event["pid"])
            continue
        if ph != "X":
            fail(f"{where}: event {i} has unexpected phase '{ph}'")
        for key in ("ts", "dur"):
            value = event.get(key)
            if not isinstance(value, NUMBER) or value < 0:
                fail(f"{where}: event {i} has bad '{key}': {value!r}")
        args = event.get("args", {})
        if not isinstance(args, dict):
            fail(f"{where}: event {i} 'args' is not an object")
        complete += 1
        if isinstance(args.get("lane"), str):
            lanes.add(args["lane"])

    if complete == 0:
        fail(f"{where}: no complete ('X') events")
    for i, event in enumerate(events):
        if event["ph"] != "M" and event["pid"] not in named_pids:
            fail(f"{where}: event {i} references unnamed pid "
                 f"{event['pid']}")
    for lane in ("GPU", "PIM") + tuple(require_lanes):
        if lane not in lanes:
            fail(f"{where}: no '{lane}' lane in the simulated timeline "
                 f"(saw: {sorted(lanes)})")
    return (f"{where} ({complete} events, {len(named_pids)} processes, "
            f"lanes: {sorted(lanes)})")


def check_metrics(doc, where):
    """Checks a parsed metrics document; returns the OK summary."""
    for key in HEADER:
        if not isinstance(doc.get(key), str):
            fail(f"{where}: missing string header field '{key}'")
    metrics = doc.get("metrics")
    if not isinstance(metrics, list) or not metrics:
        fail(f"{where}: missing non-empty 'metrics' array")
    for i, entry in enumerate(metrics):
        if not isinstance(entry, dict):
            fail(f"{where}: metric {i} is not an object")
        if not isinstance(entry.get("name"), str):
            fail(f"{where}: metric {i} missing string 'name'")
        if entry.get("kind") not in ("counter", "gauge"):
            fail(f"{where}: metric {i} has unknown kind "
                 f"{entry.get('kind')!r}")
        if not isinstance(entry.get("value"), NUMBER):
            fail(f"{where}: metric {i} missing numeric 'value'")

    series = doc.get("timeseries", [])
    if not isinstance(series, list):
        fail(f"{where}: 'timeseries' is not an array")
    points = 0
    for i, entry in enumerate(series):
        if not isinstance(entry, dict):
            fail(f"{where}: series {i} is not an object")
        if not isinstance(entry.get("name"), str):
            fail(f"{where}: series {i} missing string 'name'")
        tick = entry.get("tick_ns")
        if not isinstance(tick, NUMBER) or tick <= 0:
            fail(f"{where}: series {i} missing positive 'tick_ns'")
        if not isinstance(entry.get("points"), list):
            fail(f"{where}: series {i} missing 'points' array")
        last_start = float("-inf")
        for j, point in enumerate(entry["points"]):
            at = f"{where}: series {i} point {j}"
            if not isinstance(point, dict):
                fail(f"{at} is not an object")
            for key in POINT_STATS:
                if not isinstance(point.get(key), NUMBER):
                    fail(f"{at} missing numeric '{key}'")
            if point["start_ns"] <= last_start:
                fail(f"{at} not in start_ns order")
            last_start = point["start_ns"]
            if point["count"] < 0:
                fail(f"{at} has negative count")
            if point["count"] > 0 and point["p99"] < point["p50"]:
                fail(f"{at} has p99 below p50")
            points += 1

    suffix = (f", {len(series)} series / {points} window points"
              if series else "")
    return f"{where} ({len(metrics)} metrics{suffix})"


def self_test():
    """The good documents must pass and every broken one must fail."""
    good_trace = {"traceEvents": [
        {"name": "process_name", "ph": "M", "pid": 1000, "tid": 0,
         "args": {"name": "sim: hmult #0"}},
        {"name": "ModUp", "ph": "X", "pid": 1000, "tid": 1, "ts": 0,
         "dur": 2, "args": {"lane": "GPU"}},
        {"name": "Tensor", "ph": "X", "pid": 1000, "tid": 2, "ts": 2,
         "dur": 1, "args": {"lane": "PIM"}},
    ]}
    point = {key: 1 for key in POINT_STATS}
    good_metrics = {
        "source": "self-test", "schema_version": "1", "git_sha": "x",
        "build_type": "t", "threads": "1",
        "metrics": [{"name": "a", "kind": "counter", "value": 1}],
        "timeseries": [{"name": "s", "tick_ns": 1000, "points": [
            dict(point, start_ns=0), dict(point, start_ns=1000)]}],
    }

    def broken(doc, edit):
        doc = copy.deepcopy(doc)
        edit(doc)
        return json.dumps(doc)

    trace, metrics = json.dumps(good_trace), json.dumps(good_metrics)
    cases = [
        ("trace", "good trace", trace, True),
        ("metrics", "good metrics", metrics, True),
        ("trace", "not JSON", "not json", False),
        ("trace", "non-object root", "[]", False),
        ("trace", "empty object", "{}", False),
        ("trace", "traceEvents not an array", '{"traceEvents": 3}',
         False),
        ("trace", "empty traceEvents", '{"traceEvents": []}', False),
        ("trace", "X event without ts", broken(
            good_trace, lambda d: d["traceEvents"][1].pop("ts")), False),
        ("trace", "pid without process_name", broken(
            good_trace, lambda d: d["traceEvents"].pop(0)), False),
        ("trace", "non-object args", broken(
            good_trace, lambda d: d["traceEvents"][1].update(args=[])),
         False),
        ("metrics", "out-of-order windows", broken(
            good_metrics,
            lambda d: d["timeseries"][0]["points"].reverse()), False),
        ("metrics", "p99 below p50", broken(
            good_metrics,
            lambda d: d["timeseries"][0]["points"][0].update(p50=2,
                                                            p99=1)),
         False),
        ("metrics", "non-object metric entry", broken(
            good_metrics, lambda d: d.update(metrics=[3])), False),
        ("metrics", "histogram kind", broken(
            good_metrics,
            lambda d: d["metrics"][0].update(kind="histogram")), False),
        ("metrics", "non-object series entry", broken(
            good_metrics, lambda d: d.update(timeseries=[3])), False),
    ]
    wrong = []
    for kind, name, text, valid in cases:
        check = check_trace if kind == "trace" else check_metrics
        try:
            check(parse(text, name), name)
            accepted = True
        except Invalid:
            accepted = False
        if accepted != valid:
            wrong.append(f"{name}: {'accepted' if accepted else 'rejected'}")
    if wrong:
        for line in wrong:
            print(f"validate_trace: self-test FAIL: {line}",
                  file=sys.stderr)
        return 1
    print(f"validate_trace: self-test OK ({len(cases)} cases)")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trace",
                        help="Chrome trace-event JSON to validate")
    parser.add_argument("--metrics",
                        help="metrics JSON dump to validate (optional)")
    parser.add_argument("--require-lane", action="append", default=[],
                        help="additional lane that must appear in the "
                             "simulated timeline (e.g. Alert); may "
                             "repeat")
    parser.add_argument("--self-test", action="store_true",
                        help="check the checks on built-in documents")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not args.trace:
        parser.error("--trace is required")
    try:
        print("validate_trace: OK: " +
              check_trace(load(args.trace), args.trace,
                          args.require_lane))
        if args.metrics:
            print("validate_trace: OK: " +
                  check_metrics(load(args.metrics), args.metrics))
    except Invalid as e:
        print(f"validate_trace: FAIL: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
