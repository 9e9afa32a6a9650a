"""Self-tests of scripts/perf_pairs.py's arithmetic.

    python3 -m unittest discover -s scripts -p 'test_*.py'
"""

import json
import os
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import perf_pairs  # noqa: E402


class Pairs(unittest.TestCase):
    def test_order_alternates(self):
        self.assertEqual(perf_pairs.order(1), ("parent", "change"))
        self.assertEqual(perf_pairs.order(2), ("change", "parent"))
        self.assertEqual(perf_pairs.order(901), ("parent", "change"))

    def test_wins_follow_direction(self):
        parent = [10.0, 10.0, 10.0, 10.0]
        change = [8.0, 9.0, 11.0, 10.0]
        self.assertEqual(perf_pairs.summarize(parent, change, "lower")["wins"], 2)
        self.assertEqual(perf_pairs.summarize(parent, change, "higher")["wins"], 1)

    def test_delta_and_gap(self):
        parent = [100.0, 104.0, 96.0, 102.0, 98.0]
        change = [80.0, 81.0, 79.0, 82.0, 78.0]
        s = perf_pairs.summarize(parent, change, "lower")
        self.assertEqual(s["parent"], (98.0, 100.0, 102.0))
        self.assertAlmostEqual(s["delta"], -0.2)
        self.assertTrue(s["beyond_parent_iqr"])
        s = perf_pairs.summarize(parent, [99.0] * 5, "lower")
        self.assertFalse(s["beyond_parent_iqr"])
        self.assertEqual(s["wins"], 3)

    def test_ratio_needs_both_parts(self):
        m = perf_pairs.add_ratios({"a": 6.0, "b": 3.0, "z": 0.0}, ["a/b", "a/z", "a/c"])
        self.assertEqual(m["a/b"], 2.0)
        self.assertNotIn("a/z", m)
        self.assertNotIn("a/c", m)

    def test_workloads_in_one_flag_or_many(self):
        base = ["--parent", "p", "--change", "c"]
        args = perf_pairs.parse_args(base + ["--workload", "offline_sample", "daemon_mix"])
        self.assertEqual(args.workload, ["offline_sample", "daemon_mix"])
        args = perf_pairs.parse_args(base + ["--workload", "warm_draws", "--workload", "daemon_mix"])
        self.assertEqual(args.workload, ["warm_draws", "daemon_mix"])
        self.assertIsNone(perf_pairs.parse_args(base).workload)


class ParseRun(unittest.TestCase):
    def test_metrics_digest_failed(self):
        last = json.dumps({"correct": True, "attempted": 3, "failed": 1,
                           "metrics": {"setup_s": {"value": 0.5, "unit": "s"}}})
        out = "offline_sample ...\n  witness digest ab12cd\n" + last + "\n"
        self.assertEqual(perf_pairs.parse_run(out), ({"setup_s": 0.5}, "ab12cd", 1))

    def test_daemon_digest_line(self):
        last = json.dumps({"metrics": {}})
        out = "  witness digest 0f9e, 16 responses bit-identical offline\n" + last
        self.assertEqual(perf_pairs.parse_run(out)[1], "0f9e")


if __name__ == "__main__":
    unittest.main()
