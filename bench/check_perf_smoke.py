#!/usr/bin/env python3
"""Perf-harness smoke check (ctest label: perf_smoke; see docs/PERF.md).

Runs one short bench under --perf, then:
  1. validates the BENCH_<name>.json it writes against the documented schema,
  2. compares the virtual-time (deterministic) fields -- events, sim_ios,
     sim_seconds -- against the checked-in golden snapshot. Any drift means a
     change altered simulation behavior, which the perf work must not do.

Wall-clock fields (wall_seconds, *_per_sec) are machine-dependent and only
schema-checked. Regenerate the golden after an *intentional* simulation
change with:

    bench/check_perf_smoke.py <build-bench-dir> --update
"""
import json
import os
import subprocess
import sys
import tempfile

BENCH = "fig06_randwrite"
ARGS = ["--seconds=0.05", "--volume-gib=0.25", "--perf"]
GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden",
                      "perf_smoke.json")
# Fields that must be byte-for-byte reproducible run to run.
DETERMINISTIC = ("bench", "events", "sim_ios", "sim_seconds")
SCHEMA = {
    "bench": str,
    "wall_seconds": float,
    "events": int,
    "events_per_sec": float,
    "sim_ios": int,
    "sim_ios_per_sec": float,
    "sim_seconds": float,
    "peak_rss_bytes": int,
    "map_resident_bytes": int,
    "crc32c_impl": str,
    "build_type": str,
}


def fail(msg):
    print("perf_smoke FAIL: %s" % msg, file=sys.stderr)
    sys.exit(1)


def check_schema(report, name):
    """Validates one BENCH json dict against the documented schema."""
    for key, want_type in SCHEMA.items():
        if key not in report:
            fail("%s missing field %r" % (name, key))
        value = report[key]
        if want_type is float and isinstance(value, int):
            value = float(value)
        if not isinstance(value, want_type):
            fail("%s field %r has type %s, want %s" %
                 (name, key, type(report[key]).__name__, want_type.__name__))
    if set(report) - set(SCHEMA):
        fail("%s has undocumented fields: %s" %
             (name, sorted(set(report) - set(SCHEMA))))


def check_committed_results():
    """Schema-checks every committed bench/results/BENCH_*.json snapshot.

    Committed snapshots (e.g. BENCH_fig19_fleet.json) are wall-clock runs
    from whatever machine produced them, so only the schema is enforced —
    but a snapshot that drifts from the schema (new field, renamed bench)
    fails here instead of rotting silently. bench/results/ holds the smoke
    sweep's snapshots and bench/results/reference/ those taken at a bench's
    default flags (the reference scale, docs/PERF.md).
    """
    results_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                               "results")
    checked = 0
    for sub in ("", "reference"):
        checked += check_snapshot_dir(os.path.join(results_dir, sub))
    return checked


def check_snapshot_dir(results_dir):
    """Schema-checks the BENCH_*.json snapshots in one directory."""
    if not os.path.isdir(results_dir):
        return 0
    checked = 0
    for entry in sorted(os.listdir(results_dir)):
        if not (entry.startswith("BENCH_") and entry.endswith(".json")):
            continue
        path = os.path.join(results_dir, entry)
        with open(path) as f:
            try:
                report = json.load(f)
            except json.JSONDecodeError as e:
                fail("committed snapshot %s is malformed: %s" % (entry, e))
        check_schema(report, entry)
        want = entry[len("BENCH_"):-len(".json")]
        if report["bench"] != want:
            fail("committed snapshot %s names bench %r" %
                 (entry, report["bench"]))
        checked += 1
    return checked


def main():
    if len(sys.argv) < 2:
        fail("usage: check_perf_smoke.py <build-bench-dir> [--update]")
    bench_dir = os.path.abspath(sys.argv[1])
    update = "--update" in sys.argv[2:]
    binary = os.path.join(bench_dir, BENCH)
    if not os.access(binary, os.X_OK):
        fail("bench binary missing: %s" % binary)

    with tempfile.TemporaryDirectory() as tmp:
        proc = subprocess.run([binary] + ARGS, cwd=tmp,
                              capture_output=True, text=True)
        if proc.returncode != 0:
            fail("%s exited %d:\n%s" % (BENCH, proc.returncode,
                                        proc.stderr[-2000:]))
        path = os.path.join(tmp, "BENCH_%s.json" % BENCH)
        if not os.path.exists(path):
            fail("bench did not write %s" % path)
        with open(path) as f:
            try:
                report = json.load(f)
            except json.JSONDecodeError as e:
                fail("malformed BENCH json: %s" % e)

    check_schema(report, "BENCH json")
    if report["bench"] != BENCH:
        fail("bench name %r != %r" % (report["bench"], BENCH))
    if report["wall_seconds"] <= 0 or report["events"] <= 0:
        fail("implausible report: %s" % report)

    snapshot = {k: report[k] for k in DETERMINISTIC}
    if update:
        os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
        with open(GOLDEN, "w") as f:
            json.dump(snapshot, f, indent=2, sort_keys=True)
            f.write("\n")
        print("perf_smoke: golden updated: %s" % GOLDEN)
        return

    if not os.path.exists(GOLDEN):
        fail("golden snapshot missing (%s); run with --update" % GOLDEN)
    with open(GOLDEN) as f:
        golden = json.load(f)
    if snapshot != golden:
        diff = {k: (golden.get(k), snapshot[k]) for k in DETERMINISTIC
                if golden.get(k) != snapshot[k]}
        fail("virtual-time drift from golden (golden, got): %s" % diff)
    committed = check_committed_results()
    print("perf_smoke OK: schema valid, virtual-time fields match golden, "
          "%d committed snapshot(s) schema-checked" % committed)


if __name__ == "__main__":
    main()
