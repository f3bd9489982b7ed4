#!/usr/bin/env python3
"""Self-tests of the benchmark's own machinery.

    python3 perfbench/test_perfbench.py

Builds the benchmark binary like run.py does, then checks that
  - the decorators are pure pass-through: every workload's simulated-results
    digest is the same with spans on and off, and sharded_scaleout's is the
    same on one thread and on min(4, nproc) threads;
  - the verifier catches injected corruption: in a lsvd_mixed round, a
    decorator that flips one byte of one load read makes the load fail, and
    one that returns a read-back read as zeros (a lost acknowledged write)
    makes the post-crash read-back fail;
  - every emitted metric name matches [A-Za-z0-9_.-]+ and is declared in
    BENCHMARK.json, for every workload in both modes, and the runs are
    correct with no failed op.
All runs use a small scale, so the whole file takes under a minute.
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")


class PerfbenchSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()
        if cls.binary is None:
            raise RuntimeError("perfbench build failed")
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def test_pass_through_and_corruption_detection(self):
        proc = subprocess.run([self.binary, "--selftest"],
                              stdout=subprocess.PIPE, text=True)
        self.assertEqual(proc.returncode, 0, proc.stdout)
        self.assertIn("PASS verifier catches one flipped byte", proc.stdout)
        self.assertIn("PASS post-crash read-back catches one lost", proc.stdout)

    def test_declared_names_are_well_formed_and_unique(self):
        names = [w["name"] for w in self.spec["workloads"]]
        for key in ("end_to_end", "per_layer"):
            names += [m["name"] for m in self.spec[key]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME_RE)

    def test_emitted_names_are_declared(self):
        for trace in (0, 1):
            declared = run.declared_metrics(trace)
            for workload in (w["name"] for w in self.spec["workloads"]):
                with self.subTest(workload=workload, trace=trace):
                    proc = subprocess.run(
                        [sys.executable, os.path.join(HERE, "run.py"),
                         "--workload", workload, "--seed", "3",
                         "--seconds", "0", "--trace", str(trace),
                         "--scale", "0.02"],
                        stdout=subprocess.PIPE, text=True, cwd=run.ROOT)
                    self.assertEqual(proc.returncode, 0)
                    result = json.loads(proc.stdout.strip().splitlines()[-1])
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreater(result["attempted"], 0)
                    self.assertEqual(set(result["metrics"]), set(declared))
                    for name, m in result["metrics"].items():
                        self.assertRegex(name, NAME_RE)
                        self.assertEqual(m["unit"], declared[name])


if __name__ == "__main__":
    unittest.main()
