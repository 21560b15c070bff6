#!/usr/bin/env python3
"""Short self-test of the repository benchmark.

Usage (from the repository root):
    python3 perfbench/tests/selftest.py

Runs every workload of BENCHMARK.json briefly (--quick: one set-up,
short probes, the reduced sim-paper job list) with --trace 0 and
--trace 1, and checks that
  - each run exits 0 and ends with the result line,
  - every end-to-end (trace 0) or per-layer (trace 1) metric of
    BENCHMARK.json is printed, by name, with its unit and a finite value,
  - the run is correct and error_rate (failed / attempted) is 0;
then checks that the benchmark refuses to run, without printing a
result, in a directory holding only BENCHMARK.json and perfbench/.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
RUN = ["python3", "perfbench/run.py"]


def check_run(bench, workload, trace):
    cmd = RUN + ["--workload", workload, "--seed", "7", "--seconds", "1",
                 "--trace", str(trace), "--quick"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    where = f"{workload} --trace {trace}"
    if done.returncode != 0:
        return [f"{where}: exit {done.returncode}\n{done.stderr[-2000:]}"]
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"]:
        problems.append(f"{where}: not correct\n{done.stdout[-2000:]}")
    if result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{where}: error_rate {result['failed']}/"
                        f"{result['attempted']}")
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    metrics = result["metrics"]
    if sorted(metrics) != sorted(m["name"] for m in wanted):
        problems.append(f"{where}: metric names differ from BENCHMARK.json")
    for metric in wanted:
        got = metrics.get(metric["name"], {})
        value = got.get("value")
        if got.get("unit") != metric["unit"] or \
                not isinstance(value, (int, float)) or \
                not math.isfinite(value):
            problems.append(f"{where}: bad {metric['name']}: {got}")
        printed = [line for line in lines[:-1]
                   if line.split()[:1] == [metric["name"]]]
        if not printed or not printed[0].endswith(" " + metric["unit"]):
            problems.append(f"{where}: {metric['name']} not printed with "
                            f"its unit")
    print(f"selftest: {where}: {len(metrics)} metrics, "
          f"{result['attempted']} operations, "
          f"{'ok' if not problems else 'FAILED'}", flush=True)
    return problems


def check_refuses_without_sources():
    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(RUN + ["--workload", "ckks-mix", "--seed", "1",
                                 "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True,
                          timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or done.stdout.strip():
        return ["run.py did not refuse a directory without the sources"]
    print("selftest: refuses to run without the library sources: ok")
    return []


def main():
    with open(ROOT / "BENCHMARK.json") as f:
        bench = json.load(f)
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            problems += check_run(bench, workload, trace)
    problems += check_refuses_without_sources()
    for problem in problems:
        print(f"selftest: FAIL: {problem}", file=sys.stderr)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
