#!/usr/bin/env python3
"""Exact golden gate over two bench --json documents.

Compares a fresh bench --json document with its committed golden copy
(e.g. golden/fault_campaign.json) as parsed JSON. The bench outputs are
simulated and deterministic, so every top-level key and every row must
be equal. The only fields dropped first are the ones a run may change
without any model change: git_sha, build_type, threads and total_ms.
Key order does not matter; row order does. Any difference fails, and
the report names every differing key and row.

Usage:
    golden_diff.py GOLDEN.json CURRENT.json
    golden_diff.py --self-test

Exits 0 when the documents are equal, 1 with one line per difference
(or when a file cannot be read), 2 on usage errors. To move a golden
on purpose, rerun the bench command in EXPERIMENTS.md and commit the
new file together with the change that moved it.
"""

import argparse
import copy
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from bench_common import load_doc

VOLATILE = ("git_sha", "build_type", "threads", "total_ms")


def diff_keys(golden, current, where, out):
    for key in golden:
        if key not in current:
            out.append(f"{where}: '{key}' missing (golden "
                       f"{golden[key]!r})")
        elif current[key] != golden[key]:
            out.append(f"{where}: '{key}' {golden[key]!r} -> "
                       f"{current[key]!r}")
    for key in current:
        if key not in golden:
            out.append(f"{where}: '{key}' added ({current[key]!r})")


def top_level(doc):
    return {key: value for key, value in doc.items()
            if key not in VOLATILE and key != "rows"}


def diff(golden, current):
    """Every difference between the two documents, one line each."""
    out = []
    diff_keys(top_level(golden), top_level(current), "top-level", out)
    golden_rows = golden.get("rows", [])
    current_rows = current.get("rows", [])
    if len(golden_rows) != len(current_rows):
        out.append(f"row count {len(golden_rows)} -> {len(current_rows)}")
    for i, (want, got) in enumerate(zip(golden_rows, current_rows)):
        diff_keys(want, got, f"rows[{i}]", out)
    return out


def self_test():
    """Identity and volatile-only changes pass; a changed count, a
    value moved only past its 10th significant digit, a dropped key
    and a swapped row each fail, naming what moved."""
    golden = {
        "bench": "fault_campaign_smoke",
        "git_sha": "abc1234",
        "build_type": "RelWithDebInfo",
        "threads": "1",
        "trials": 2,
        "rows": [
            {"ber": 1e-05, "checkpoint_interval_segments": 0,
             "rollbacks": 0, "unrecovered_rate": 0.5},
            {"ber": 1e-05, "checkpoint_interval_segments": 8,
             "rollbacks": 32, "unrecovered_rate": 0.5},
        ],
        "total_ms": 120.0,
    }
    assert not diff(golden, copy.deepcopy(golden)), "identity flagged"

    rerun = copy.deepcopy(golden)
    for key, value in (("git_sha", "def5678"), ("build_type", "Debug"),
                       ("threads", "4"), ("total_ms", 900.0)):
        rerun[key] = value
    assert not diff(golden, rerun), diff(golden, rerun)

    counted = copy.deepcopy(golden)
    counted["rows"][1]["rollbacks"] = 31
    lines = diff(golden, counted)
    assert lines == ["rows[1]: 'rollbacks' 32 -> 31"], lines

    # The benches write the shortest text that round-trips, so a
    # model change below the 10th significant digit still shows.
    digits = copy.deepcopy(golden)
    digits["rows"][0]["unrecovered_rate"] = 0.50000000001
    lines = diff(golden, digits)
    assert lines == [
        "rows[0]: 'unrecovered_rate' 0.5 -> 0.50000000001"], lines

    dropped = copy.deepcopy(golden)
    del dropped["trials"]
    lines = diff(golden, dropped)
    assert lines == ["top-level: 'trials' missing (golden 2)"], lines

    swapped = copy.deepcopy(golden)
    swapped["rows"].reverse()
    lines = diff(golden, swapped)
    assert len(lines) == 4, lines
    assert any(line.startswith("rows[0]: 'rollbacks'") for line in lines)
    assert any(line.startswith("rows[1]: 'rollbacks'") for line in lines)

    truncated = copy.deepcopy(golden)
    truncated["rows"].pop()
    assert diff(golden, truncated) == ["row count 2 -> 1"]

    print("golden_diff: self-test OK")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("golden", nargs="?",
                        help="committed golden bench JSON")
    parser.add_argument("current", nargs="?",
                        help="freshly produced bench JSON")
    parser.add_argument("--self-test", action="store_true",
                        help="run the built-in synthetic check and exit")
    args = parser.parse_args()

    if args.self_test:
        return self_test()
    if not args.golden or not args.current:
        parser.print_usage(sys.stderr)
        return 2

    golden = load_doc(args.golden, "golden_diff")
    current = load_doc(args.current, "golden_diff")
    if golden is None or current is None:
        return 1

    lines = diff(golden, current)
    if lines:
        for line in lines:
            print(f"golden_diff: {args.current}: {line}", file=sys.stderr)
        print(f"golden_diff: {len(lines)} difference(s) from "
              f"{args.golden}; if the change is intended, regenerate the "
              "golden with the command in EXPERIMENTS.md", file=sys.stderr)
        return 1
    print(f"golden_diff: OK: {args.current} equals {args.golden} "
          f"({len(golden.get('rows', []))} rows)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
