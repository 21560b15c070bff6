#!/usr/bin/env python3
"""Rewrite the golden files whose gates no longer pass.

Reads the golden gates from the build tree's ctest listing
(`ctest --show-only=json-v1`): every `golden_*` test that runs
`golden_diff.py GOLDEN CURRENT`, the smoke it requires (its
FIXTURES_REQUIRED) and the working directory both run in. It keeps no
list of its own. It reruns each of those smokes once, with the worker
pool pinned to one thread (ANAHEIM_THREADS=1, as the goldens were
made), then runs each gate's comparison. Where golden_diff.py reports a
difference, the fresh document replaces the golden, and its path is
printed. Goldens that still match are left untouched.

Usage (from the repository root, after building):
    scripts/rebaseline.py [--build-dir build]

Exits 0 once every differing golden is rewritten (or none differs), 1
when a smoke fails or a comparison cannot run, 2 on usage errors.
Review the rewritten files with `git diff golden/` and commit them with
the change that moved them.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path


def fail(msg):
    print(f"rebaseline: {msg}", file=sys.stderr)
    sys.exit(1)


def properties(test):
    return {p["name"]: p["value"] for p in test.get("properties", [])}


def list_tests(build_dir):
    done = subprocess.run(["ctest", "--show-only=json-v1"], cwd=build_dir,
                          capture_output=True, text=True)
    if done.returncode != 0:
        fail(f"ctest --show-only failed in {build_dir}: {done.stderr}")
    return {t["name"]: t for t in json.loads(done.stdout)["tests"]}


def golden_gates(tests):
    """(gate name, golden path, fresh path, smoke name, comparison
    command without its two paths) for each gate."""
    gates = []
    for name, test in sorted(tests.items()):
        command = test.get("command", [])
        script = [i for i, arg in enumerate(command)
                  if Path(arg).name == "golden_diff.py"]
        if not name.startswith("golden_") or not script:
            continue
        args = command[script[0] + 1:]
        if len(args) != 2 or args[0].startswith("-"):
            continue  # golden_diff.py --self-test
        props = properties(test)
        smokes = props.get("FIXTURES_REQUIRED", [])
        if len(smokes) != 1:
            fail(f"{name} requires {smokes}, not one smoke")
        workdir = Path(props.get("WORKING_DIRECTORY", "."))
        gates.append((name, Path(args[0]), workdir / args[1], smokes[0],
                      command[:script[0] + 1]))
    return gates


def run_smoke(test):
    props = properties(test)
    env = dict(os.environ)
    for assignment in props.get("ENVIRONMENT", []):
        key, _, value = assignment.partition("=")
        env[key] = value
    env["ANAHEIM_THREADS"] = "1"
    done = subprocess.run(test["command"],
                          cwd=props.get("WORKING_DIRECTORY", "."),
                          env=env, stdout=subprocess.DEVNULL)
    if done.returncode != 0:
        fail(f"{test['name']} exited with {done.returncode}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build-dir", default="build",
                        help="configured and built CMake tree (default "
                             "build)")
    args = parser.parse_args()
    build_dir = Path(args.build_dir).resolve()
    if not (build_dir / "CTestTestfile.cmake").exists():
        print(f"rebaseline: {build_dir} is not a configured build tree",
              file=sys.stderr)
        sys.exit(2)

    tests = list_tests(build_dir)
    gates = golden_gates(tests)
    if not gates:
        fail(f"no golden gates in {build_dir}")
    for smoke in sorted({gate[3] for gate in gates}):
        if smoke not in tests:
            fail(f"smoke {smoke} is not a ctest entry")
        run_smoke(tests[smoke])

    rewritten = []
    for name, golden, fresh, _, compare in gates:
        done = subprocess.run(compare + [str(golden), str(fresh)],
                              capture_output=True, text=True)
        if done.returncode == 0:
            continue
        if done.returncode != 1 or not fresh.exists():
            fail(f"{name} could not compare: {done.stdout}{done.stderr}")
        shutil.copyfile(fresh, golden)
        rewritten.append(golden)
        print(f"rewrote {golden} ({name}):")
        # golden_diff.py names each difference on stderr, then adds a
        # summary line that only applies to a failing gate.
        for line in done.stderr.splitlines():
            if "difference(s) from" not in line:
                print(f"  {line}")
    print(f"rebaseline: {len(rewritten)} of {len(gates)} goldens rewritten")


if __name__ == "__main__":
    main()
