#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 cqabench/test_bench.py            # all workloads
    python3 cqabench/test_bench.py -k churn   # a subset (unittest -k)

- Two traced runs with the same seed must report exactly equal counts.
- A planted wrong expected answer must make both the untraced and the
  traced run report correct=false with at least one failed request.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("tenant_reads", "churn_wide", "sat_gadgets")

# Counts (not times) of the traced run; each must repeat exactly.
COUNTS = (
    "engine.components_scanned",
    "engine.components_resolved",
    "engine.evictions",
    "sat.conflicts_per_solve",
    "sat.decisions_per_solve",
    "sat.clauses_retracted_per_solve",
    "sat.learned_kept",
    "store.bytes_per_user_byte",
    "store.snapshots",
    "data.compactions",
    "data.interned_elements",
)


def run(workload, seed, trace, seconds=2, plant=None):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    if plant is not None:
        command += ["--plant-wrong-verdict", str(plant)]
    out = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True, timeout=600)
    if out.returncode != 0:
        raise AssertionError("run failed: %s" % out.stdout[-2000:])
    return json.loads(out.stdout.strip().splitlines()[-1])


class TracedCountsRepeat(unittest.TestCase):
    def test_same_seed_same_counts(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first = run(workload, seed=7, trace=1)
                second = run(workload, seed=7, trace=1)
                self.assertTrue(first["correct"], first)
                self.assertTrue(second["correct"], second)
                for name in COUNTS:
                    self.assertEqual(first["metrics"][name]["value"],
                                     second["metrics"][name]["value"], name)


class PlantedWrongVerdictFails(unittest.TestCase):
    def test_untraced(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result = run(workload, seed=3, trace=0, plant=5)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)

    def test_traced(self):
        result = run("churn_wide", seed=3, trace=1, plant=5)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)


if __name__ == "__main__":
    unittest.main()
