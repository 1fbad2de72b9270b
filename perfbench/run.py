#!/usr/bin/env python3
"""Repository benchmark: builds the perfbench binary from source and runs one
workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The program and the benchmark binary are
built with CMake into .bench_build/perfbench (or $CARGO_TARGET_DIR/perfbench)
on first use. The workload runs in its own process, so its peak RSS is its own. The
binary's output is passed through; its last line is one JSON object
{correct, attempted, failed, metrics}, whose metric names and units are
checked here against BENCHMARK.json (end_to_end for --trace 0, per_layer for
--trace 1; a per-layer metric the workload does not print, because it
bypasses that layer, is reported as 0). The exit code is non-zero when the build fails, the binary
crashes, or any output check fails.

--smoke (tiny inputs) and --perturb-fingerprint (corrupts one fingerprint so
the output checks must fail) exist for perfbench/tests.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    try:
        with open(ROOT / "BENCHMARK.json") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def build():
    """Configure and build the benchmark binary; returns its path."""
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    build_dir = base / "perfbench"
    build_dir.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    # One build at a time per build directory.
    with open(build_dir / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (build_dir / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", str(build_dir), "-j", jobs])
        for cmd in steps:
            try:
                r = subprocess.run(cmd, stdout=subprocess.PIPE,
                                   stderr=subprocess.STDOUT, text=True,
                                   timeout=BUILD_TIMEOUT_S)
            except (OSError, subprocess.TimeoutExpired) as e:
                fail(f"build step {cmd[:2]} failed: {e}")
            if r.returncode != 0:
                sys.stderr.write(r.stdout[-4000:])
                fail("build failed")
    return build_dir / "perfbench"


def git_sha():
    try:
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                           text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def check_result(result, expected):
    """Names the ways `result` breaks the output contract (empty if none)."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
        return problems
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        problems.append("failed must be a whole number >= 0")
    metrics = result["metrics"]
    want = {m["name"]: m["unit"] for m in expected}
    if set(metrics) != set(want):
        problems.append(f"metric names differ from BENCHMARK.json: "
                        f"missing {sorted(set(want) - set(metrics))}, "
                        f"extra {sorted(set(metrics) - set(want))}")
    for name, m in metrics.items():
        if name in want and m.get("unit") != want[name]:
            problems.append(f"{name}: unit {m.get('unit')} != {want[name]}")
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--perturb-fingerprint", action="store_true")
    args = ap.parse_args()

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r} (have {names})")
    binary = build()

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--git-sha", git_sha()]
    if args.smoke:
        cmd.append("--smoke")
    if args.perturb_fingerprint:
        cmd.append("--perturb-fingerprint")
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"workload {args.workload} exceeded {RUN_TIMEOUT_S} s")
    lines = r.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict):
        sys.stdout.write(r.stdout)
        fail(f"perfbench exited {r.returncode} without a result")
    if args.trace and isinstance(result.get("metrics"), dict):
        # The binary prints only the layers the workload exercises; the
        # per-layer metrics of the layers it bypasses read 0.
        for m in spec["per_layer"]:
            result["metrics"].setdefault(
                m["name"], {"value": 0.0, "unit": m["unit"]})
    problems = check_result(
        result, spec["per_layer"] if args.trace else spec["end_to_end"])
    for line in lines[:-1]:
        print(line)
    for p in problems:
        print(f"CHECK FAILED: {p}")
    if problems:
        result["correct"] = False
    print(json.dumps(result))
    sys.exit(0 if r.returncode == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
