#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds the
repository's libraries and the benchmark binary under the build directory
($CARGO_TARGET_DIR, default .bench_build); later runs rebuild incrementally.
The last line of standard output is the result: correct, attempted, failed
and every metric BENCHMARK.json declares for the mode (end_to_end with
--trace 0, per_layer with --trace 1), each with its unit. With --trace 1
the run's spans are also written as Chrome trace-event JSON under
<build dir>/traces/.

Exits non-zero, printing no result, if the build fails or the binary does
not produce exactly the declared metrics. Exits non-zero after printing the
result if the run is not correct: an op failed, a read returned wrong data,
or the rounds' simulated-results digests differ.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures (once) and builds the binary; returns its path."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", out,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            # Leave no half-configured tree behind for the next attempt.
            shutil.rmtree(out, ignore_errors=True)
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", out, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(out, "perfbench")


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="op-count and volume multiplier (self-tests only)")
    args = ap.parse_args()

    declared = declared_metrics(args.trace)
    binary = build()
    if binary is None:
        log("perfbench: build failed")
        return 1

    cmd = [binary, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           f"--scale={args.scale}"]
    if args.trace:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd.append(f"--trace-out={traces}/{args.workload}-{args.seed}.json")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: run exceeded {RUN_TIMEOUT_S}s")
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"perfbench: binary exited with {proc.returncode}")
        return 1
    raw = json.loads(lines[-1])
    log(f"perfbench: {raw['rounds']} rounds, simulated-results digest "
        f"{raw['digest']}")

    emitted = raw["metrics"]
    bad = [n for n in emitted if not NAME_RE.match(n)]
    missing = sorted(set(declared) - set(emitted))
    extra = sorted(set(emitted) - set(declared))
    if bad or missing or extra:
        log(f"perfbench: metric names do not match BENCHMARK.json: "
            f"bad={bad} missing={missing} undeclared={extra}")
        return 1

    result = {
        "correct": bool(raw["correct"]),
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": {name: {"value": emitted[name], "unit": unit}
                    for name, unit in declared.items()},
    }
    print(json.dumps(result))
    if not result["correct"]:
        log("perfbench: run is not correct")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
