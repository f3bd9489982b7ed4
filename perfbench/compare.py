#!/usr/bin/env python3
"""Collects benchmark result sets and compares them.

    # Run workloads over seeds, each for BENCHMARK.json's run_seconds with
    # --trace 0; append one JSON line per run to FILE.
    python3 perfbench/compare.py collect FILE [--workloads a,b] [--seeds 1-10]

    # Per workload and end-to-end metric: median, quartiles and the
    # quartile spread as a share of the median, against the metric's bound.
    python3 perfbench/compare.py spread FILE

    # Parent against change: each side's median and quartiles and a verdict
    # (improved, regressed, unchanged or unresolved) per workload and metric.
    python3 perfbench/compare.py diff PARENT CHANGE

Run from the root of a checkout. Verdicts follow the rule in
perfbench/README.md: runs pair up by seed; a gain needs the change to win at
least nine tenths of the pairs (ties count for neither) and the medians to
differ by more than the parent's quartile spread. Otherwise the change
regressed if its median is worse than the parent's by more than the metric's
bound; it is unresolved if the parent's spread is wider than the bound and
not every change run beats every parent run; else unchanged.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def collect(args):
    spec = load_spec()
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seconds = spec["run_seconds"]
    with open(args.file, "a") as out:
        for workload in workloads:
            for seed in parse_seeds(args.seeds):
                cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
                       "--workload", workload, "--seed", str(seed),
                       "--seconds", str(seconds), "--trace", "0"]
                proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                      cwd=ROOT)
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or not lines:
                    print(f"{workload} seed {seed}: run failed",
                          file=sys.stderr)
                    return 1
                result = json.loads(lines[-1])
                out.write(json.dumps({"workload": workload, "seed": seed,
                                      "result": result}) + "\n")
                out.flush()
                print(f"{workload} seed {seed}: correct={result['correct']}",
                      file=sys.stderr)
    return 0


def load_runs(path):
    """{workload: {seed: result}}"""
    runs = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                rec = json.loads(line)
                runs.setdefault(rec["workload"], {})[rec["seed"]] = \
                    rec["result"]
    return runs


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def values_of(results, name):
    return [r["metrics"][name]["value"] for r in results
            if name in r["metrics"]]


def spread(args):
    spec = load_spec()
    runs = load_runs(args.file)
    print(f"{'workload':18} {'metric':18} {'median':>14} {'q1':>14} "
          f"{'q3':>14} {'spread':>8} {'bound':>6}")
    for workload, by_seed in runs.items():
        results = list(by_seed.values())
        bad = [r for r in results if not r["correct"] or r["failed"]]
        if bad:
            print(f"{workload}: {len(bad)} incorrect run(s)")
        for m in spec["end_to_end"]:
            vals = values_of(results, m["name"])
            if not vals:
                continue
            q1, med, q3 = quartiles(vals)
            share = (q3 - q1) / med if med else float("inf")
            flag = "" if share < m["bound"] / 3 else (
                " <- over bound/3" if share <= m["bound"] else " <- OVER")
            print(f"{workload:18} {m['name']:18} {med:14.6g} {q1:14.6g} "
                  f"{q3:14.6g} {share:8.4f} {m['bound']:6.2f}{flag}")
    return 0


def verdict(parent, change, better, bound):
    pairs = list(zip(parent, change))
    sign = 1 if better == "higher" else -1
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    p1, pmed, p3 = quartiles(parent)
    _, cmed, _ = quartiles(change)
    if (pairs and wins >= 0.9 * len(pairs) and sign * (cmed - pmed) > 0
            and abs(cmed - pmed) > (p3 - p1)):
        return "improved"
    if pmed and sign * (pmed - cmed) / abs(pmed) > bound:
        return "regressed"
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if pmed and (p3 - p1) / abs(pmed) > bound and not all_better:
        return "unresolved"
    return "unchanged"


def diff(args):
    spec = load_spec()
    parent, change = load_runs(args.parent), load_runs(args.change)
    print(f"{'workload':18} {'metric':18} {'parent median [q1, q3]':>40} "
          f"{'change median [q1, q3]':>40}  verdict")
    for workload in parent:
        if workload not in change:
            continue
        seeds = sorted(set(parent[workload]) & set(change[workload]))
        for m in spec["end_to_end"]:
            p = values_of([parent[workload][s] for s in seeds], m["name"])
            c = values_of([change[workload][s] for s in seeds], m["name"])
            if not p or len(p) != len(c):
                continue
            pq, cq = quartiles(p), quartiles(c)
            v = verdict(p, c, m["better"], m["bound"])
            print(f"{workload:18} {m['name']:18} "
                  f"{pq[1]:14.6g} [{pq[0]:10.6g}, {pq[2]:10.6g}] "
                  f"{cq[1]:14.6g} [{cq[0]:10.6g}, {cq[2]:10.6g}]  {v}")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("file")
    c.add_argument("--workloads", default="")
    c.add_argument("--seeds", default="1-10")
    s = sub.add_parser("spread")
    s.add_argument("file")
    d = sub.add_parser("diff")
    d.add_argument("parent")
    d.add_argument("change")
    args = ap.parse_args()
    return {"collect": collect, "spread": spread, "diff": diff}[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
