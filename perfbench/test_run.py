#!/usr/bin/env python3
"""Self-tests of the benchmark harness (perfbench/run.py).

    python3 perfbench/test_run.py

Builds the driver if needed and runs a few short simulations of the
switch-vc workload (well under a minute in total).
"""

import copy
import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def declared(kind):
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


class HarnessTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        os.makedirs(os.path.dirname(run.BUILD_DIR), exist_ok=True)
        cls.scratch = os.path.join(os.path.dirname(run.BUILD_DIR),
                                   "selftest_reference.json")
        cls.timed = run.measure("switch-vc", 1, 0, 0, run.REFERENCE)
        cls.traced = run.measure("switch-vc", 1, 0, 1, run.REFERENCE)

    @classmethod
    def tearDownClass(cls):
        if os.path.exists(cls.scratch):
            os.remove(cls.scratch)

    def test_reference_run_is_correct(self):
        for _, result in (self.timed, self.traced):
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            self.assertGreaterEqual(result["attempted"], 1)

    def test_wrong_reference_counts_every_run_failed(self):
        table = copy.deepcopy(run.load_reference(run.REFERENCE))
        seeds = {str(r["seed"]) for r in self.timed[0]["runs"]}
        self.assertTrue(seeds <= set(table["switch-vc"]),
                        "reference lacks the default seed's inputs")
        for seed in seeds:
            table["switch-vc"][seed]["mean_interval_ms"] *= 1.0 + 1e-15
        with open(self.scratch, "w") as f:
            json.dump(table, f)
        doc, _ = self.timed
        attempted, failed = run.check_runs(
            doc, run.load_reference(self.scratch))
        self.assertEqual(attempted, len(doc["runs"]))
        self.assertEqual(failed, attempted)

    def test_disagreeing_runs_fail_without_reference(self):
        doc = copy.deepcopy(self.traced[0])
        doc["runs"][-1]["outputs"]["be_messages"] += 1
        attempted, failed = run.check_runs(doc, {})
        self.assertEqual((attempted, failed), (len(doc["runs"]), 1))
        doc["runs"][-1]["outputs"]["be_messages"] -= 1
        doc["runs"][-1]["events"] += 1
        self.assertEqual(run.check_runs(doc, {})[1], 1)

    def test_failed_run_reports_no_metrics(self):
        doc, _ = self.timed
        broken = copy.deepcopy(doc)
        broken["runs"][0]["outputs"]["truncated"] = True
        self.assertEqual(run.check_runs(broken, {})[1], 1)

    def test_every_metric_printed_by_name_with_unit(self):
        for (_, result), kind in ((self.timed, "end_to_end"),
                                  (self.traced, "per_layer")):
            want = declared(kind)
            got = result["metrics"]
            self.assertEqual(set(got), set(want), kind)
            for name, m in got.items():
                self.assertEqual(set(m), {"value", "unit"}, name)
                self.assertEqual(m["unit"], want[name], name)
                self.assertIsInstance(m["value"], (int, float), name)
        for name in declared("end_to_end"):
            self.assertGreater(self.timed[1]["metrics"][name]["value"], 0)

    def test_layer_shares_sum_to_one(self):
        classes = {name: {"s": 0.1 * (i + 1)}
                   for i, name in enumerate(run.CLASS_LAYERS)}
        loop_s = 1.5 * sum(c["s"] for c in classes.values())
        shares = run.layer_shares(classes, loop_s)
        self.assertAlmostEqual(sum(shares.values()), 1.0, places=12)
        self.assertAlmostEqual(shares["trace.unattributed"], 1 / 3,
                               places=12)
        # FrameSource and BestEffortSource both land in "traffic".
        self.assertAlmostEqual(shares["traffic"],
                               (0.6 + 0.7) / loop_s, places=12)

        metrics = self.traced[1]["metrics"]
        total = sum(v["value"] for k, v in metrics.items()
                    if k.endswith("share") and not k.startswith("sim."))
        self.assertAlmostEqual(total, 1.0, places=9)
        for name, m in metrics.items():
            if name.endswith("share"):
                self.assertGreaterEqual(m["value"], 0.0, name)
                self.assertLessEqual(m["value"], 1.0, name)

    def test_input_seeds_are_distinct_and_rooted(self):
        seeds = [run.input_seed(1, i) for i in range(run.INPUTS)]
        self.assertEqual(seeds[0], 1)
        self.assertEqual(len(set(seeds)), run.INPUTS)
        self.assertTrue(all(0 <= s < 1 << 64 for s in seeds))
        self.assertLess(run.input_seed((1 << 64) - 1, 3), 1 << 64)


if __name__ == "__main__":
    unittest.main()
