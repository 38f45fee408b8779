#!/usr/bin/env python3
"""Tests for compare.py on seeded synthetic result sets.

    python3 perfbench/compare_test.py
"""

import contextlib
import io
import json
import os
import random
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import compare  # noqa: E402

SPEC = {
    "end_to_end": [
        {"name": "latency_ms", "unit": "ms", "better": "lower",
         "bound": 0.1},
        {"name": "ndcg5", "unit": "ndcg", "better": "higher",
         "bound": 0.01},
    ],
    "per_layer": [
        {"name": "decoded", "unit": "count", "better": "lower"},
    ],
}


class CompareTest(unittest.TestCase):

    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)
        self.spec_path = os.path.join(self.tmp.name, "BENCHMARK.json")
        with open(self.spec_path, "w") as f:
            json.dump(SPEC, f)

    def write_side(self, side, seed, latency, noise, ndcg=0.5, decoded=100.0,
                   runs=10, correct=True):
        """Writes `runs` result files whose latency is `latency` times a
        seeded uniform factor in [1 - noise, 1 + noise]."""
        directory = os.path.join(self.tmp.name, side)
        os.makedirs(directory, exist_ok=True)
        rng = random.Random(seed)
        for i in range(runs):
            result = {
                "correct": correct, "attempted": 10,
                "failed": 0 if correct else 1,
                "metrics": {
                    "latency_ms": {
                        "value": latency * rng.uniform(1 - noise, 1 + noise),
                        "unit": "ms"},
                    "ndcg5": {"value": ndcg, "unit": "ndcg"},
                    "decoded": {"value": decoded, "unit": "count"},
                },
            }
            with open(os.path.join(directory, "explore-%d.json" % i),
                      "w") as f:
                f.write("progress line\n" + json.dumps(result) + "\n")
        return directory

    def verdicts(self, base, new, per_layer=False):
        rows = compare.compare(compare.load_runs(base),
                               compare.load_runs(new), SPEC, per_layer)
        return {row["metric"]: row["verdict"] for row in rows}

    def run_main(self, base, new):
        with contextlib.redirect_stdout(io.StringIO()):
            return compare.main([base, new, "--benchmark", self.spec_path,
                                 "--per-layer"])

    def test_same_distribution_is_no_worse(self):
        base = self.write_side("base", 1, 10.0, 0.02)
        new = self.write_side("new", 2, 10.0, 0.02)
        self.assertEqual(self.verdicts(base, new)["latency_ms"], "no-worse")
        self.assertEqual(self.run_main(base, new), 0)

    def test_clear_gain_is_improved(self):
        base = self.write_side("base", 3, 10.0, 0.02)
        new = self.write_side("new", 4, 7.0, 0.02)
        self.assertEqual(self.verdicts(base, new)["latency_ms"], "improved")

    def test_loss_beyond_bound_is_regressed(self):
        base = self.write_side("base", 5, 10.0, 0.02)
        new = self.write_side("new", 6, 12.0, 0.02)
        self.assertEqual(self.verdicts(base, new)["latency_ms"], "regressed")
        self.assertEqual(self.run_main(base, new), 1)

    def test_loss_within_bound_is_no_worse(self):
        base = self.write_side("base", 7, 10.0, 0.01)
        new = self.write_side("new", 8, 10.5, 0.01)
        self.assertEqual(self.verdicts(base, new)["latency_ms"], "no-worse")

    def test_spread_wider_than_bound_is_unresolved(self):
        base = self.write_side("base", 9, 10.0, 0.5)
        new = self.write_side("new", 10, 11.0, 0.5)
        self.assertEqual(self.verdicts(base, new)["latency_ms"], "unresolved")

    def test_higher_is_better_direction(self):
        base = self.write_side("base", 11, 10.0, 0.02, ndcg=0.50)
        worse = self.write_side("worse", 12, 10.0, 0.02, ndcg=0.49)
        better = self.write_side("better", 13, 10.0, 0.02, ndcg=0.51)
        self.assertEqual(self.verdicts(base, worse)["ndcg5"], "regressed")
        self.assertEqual(self.verdicts(base, better)["ndcg5"], "improved")

    def test_per_layer_metrics_have_no_bound(self):
        base = self.write_side("base", 14, 10.0, 0.02, decoded=100.0)
        new = self.write_side("new", 15, 10.0, 0.02, decoded=150.0)
        verdicts = self.verdicts(base, new, per_layer=True)
        self.assertEqual(verdicts["decoded"], "worsened")
        self.assertNotIn("decoded", self.verdicts(base, new))
        # A worsened per-layer metric alone does not fail the comparison.
        self.assertEqual(self.run_main(base, new), 0)

    def test_incorrect_run_fails(self):
        base = self.write_side("base", 16, 10.0, 0.02)
        new = self.write_side("new", 17, 10.0, 0.02, correct=False)
        self.assertEqual(self.run_main(base, new), 1)

    def test_workload_names_may_contain_dashes(self):
        directory = os.path.join(self.tmp.name, "dashes")
        os.makedirs(directory)
        with open(os.path.join(directory, "cold-scan-7.json"), "w") as f:
            f.write(json.dumps({"correct": True, "metrics": {}}) + "\n")
        self.assertEqual(list(compare.load_runs(directory)), ["cold-scan"])


if __name__ == "__main__":
    unittest.main()
