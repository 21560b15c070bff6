#!/usr/bin/env python3
"""Repository benchmark: build the library and the benchmark from
source, run one workload, check its outputs and print its metrics.

Usage (from the repository root):
    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Workloads: ckks-mix, ckks-boot, sim-paper, serve-chaos (BENCHMARK.json
records why each exists). --trace 0 runs the stock binary and prints
every end-to-end metric of BENCHMARK.json; --trace 1 runs the stock
binary for half the time, then the traced binary (host spans on,
operator new counted, every layer probed) for the other half, and
prints every per-layer metric, after checking that the traced run
reproduced the untraced run's deterministic counts and that its
Chrome trace passes scripts/validate_trace.py.

The last line of standard output is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build),
inside the repository.
"""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("ckks-mix", "ckks-boot", "sim-paper", "serve-chaos")
# Wall-clock limit for one benchmark process.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build(out):
    """Configure and build both binaries; build output goes to stderr.
    The compiler's temporary files stay inside the build directory."""
    tmp = out / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (["cmake", "-S", str(HERE), "-B", str(out),
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                ["cmake", "--build", str(out), "-j", jobs, "--target",
                 "perfbench", "perfbench_traced"]):
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              env=env)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")


def run_binary(binary, args):
    """Run one benchmark process; return its report (last stdout line)."""
    try:
        done = subprocess.run([str(binary)] + args, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{binary.name} {' '.join(args)} timed out")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"{binary.name} exited with {done.returncode}")
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    return json.loads(lines[-1])


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown"
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short",
                           "HEAD"], capture_output=True, text=True)
    return done.stdout.strip() or "unknown"


def spec():
    path = ROOT / "BENCHMARK.json"
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot read {path}: {e}")


def compare_counts(untraced, traced):
    """Names of deterministic counts the traced run did not reproduce."""
    return sorted(name for name, value in untraced["counts"].items()
                  if traced["counts"].get(name) != value)


def validate_trace(path):
    script = ROOT / "scripts" / "validate_trace.py"
    done = subprocess.run([sys.executable, str(script), "--trace",
                           str(path)], stdout=sys.stderr, stderr=sys.stderr)
    return done.returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="short set-up and probes (self-test only)")
    args = parser.parse_args()
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources under {ROOT / 'src'}")
    if args.seconds <= 0:
        fail("--seconds must be positive")
    bench = spec()

    out = build_dir()
    build(out)
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.quick:
        common.append("--quick")

    problems = []
    if args.trace == 0:
        report = run_binary(out / "perfbench",
                            common + ["--seconds", str(args.seconds)])
        values = report["e2e"]
        wanted = bench["end_to_end"]
    else:
        half = str(args.seconds / 2)
        untraced = run_binary(out / "perfbench", common + ["--seconds", half])
        trace_path = out / "traces" / f"{args.workload}.json"
        trace_path.parent.mkdir(exist_ok=True)
        report = run_binary(out / "perfbench_traced",
                            common + ["--seconds", half, "--traced",
                                      "--trace-out", str(trace_path)])
        values = dict(report["layers"])
        values["trace_overhead_frac"] = (report["e2e"]["op_ms_mean"] /
                                         untraced["e2e"]["op_ms_mean"] - 1.0)
        report["attempted"] += untraced["attempted"]
        report["failed"] += untraced["failed"]
        report["failures"] += untraced["failures"]
        changed = compare_counts(untraced, report)
        if changed:
            problems.append("traced run changed counts: " +
                            ", ".join(changed))
        if not validate_trace(trace_path):
            problems.append(f"{trace_path} fails validate_trace.py")
        wanted = bench["per_layer"]

    attempted = report["attempted"]
    failed = report["failed"]
    values["error_rate"] = failed / attempted if attempted else 1.0
    meta = dict(report["meta"], git_sha=git_sha(), trace=str(args.trace))
    print("meta: " + json.dumps(meta, sort_keys=True))
    for why in report["failures"]:
        print(f"FAILED: {why}")
    for why in problems:
        print(f"FAILED: {why}")

    metrics = {}
    for metric in wanted:
        name, unit = metric["name"], metric["unit"]
        value = values.get(name)
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"metric {name} missing or not finite")
            continue
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name:32s} {value:16.6g} {unit}")
    print(f"operations: {attempted} attempted, {failed} failed "
          f"(error_rate {values['error_rate']:g})")
    if len(metrics) != len(wanted):
        fail("; ".join(problems))

    result = {"correct": failed == 0 and not problems,
              "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
