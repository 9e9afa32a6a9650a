"""Self-tests of the benchmark's own arithmetic.

Run with `python3 -m unittest discover -s perfbench -p 'test_*.py'`;
perfbench/run.py also runs them before every measurement.
"""

import json
import os
import tempfile
import unittest

import ledger


def B(name, ts, tid=0, **args):
    e = {"name": name, "ph": "B", "ts": ts, "tid": tid}
    if args:
        e["args"] = {k: str(v) for k, v in args.items()}
    return e


def E(name, ts, tid=0):
    return {"name": name, "ph": "E", "ts": ts, "tid": tid}


class Percentiles(unittest.TestCase):
    def test_full_tail_when_enough_samples(self):
        # 1000 samples: 10 lie beyond p99, so p99 itself is reported
        self.assertAlmostEqual(ledger.supported_percentile(1000, 0.99), 0.99)
        self.assertAlmostEqual(ledger.supported_percentile(200, 0.95), 0.95)

    def test_tail_falls_back_to_supported_percentile(self):
        # 500 samples: only p98 has ten samples beyond it
        self.assertAlmostEqual(ledger.supported_percentile(500, 0.99), 0.98)
        self.assertAlmostEqual(ledger.supported_percentile(100, 0.95), 0.90)

    def test_never_below_median(self):
        self.assertEqual(ledger.supported_percentile(12, 0.9), 0.5)
        self.assertEqual(ledger.supported_percentile(0, 0.9), 0.5)

    def test_quantile_interpolates(self):
        self.assertEqual(ledger.quantile([3, 1, 2], 0.5), 2)
        self.assertEqual(ledger.quantile([1, 2, 3, 4], 0.5), 2.5)
        self.assertEqual(ledger.quantile([5], 0.99), 5)
        self.assertEqual(ledger.quantile([], 0.5), 0.0)

    def test_tail_value_and_percentile(self):
        values = list(range(1, 101))  # 1..100
        v, p = ledger.tail(values, 0.99)
        self.assertAlmostEqual(p, 0.90)
        self.assertAlmostEqual(v, ledger.quantile(values, 0.90))
        # exactly ten samples lie above the reported value
        self.assertEqual(sum(1 for x in values if x > v), 10)


class ClassMedian(unittest.TestCase):
    def test_weighted_by_class_counts(self):
        # class 0: median 10 over 3 ops, class 1: median 40 over 1 op
        self.assertAlmostEqual(ledger.class_median([9, 10, 11, 40], [0, 0, 0, 1]), (3 * 10 + 40) / 4)

    def test_bimodal_mix_is_steady(self):
        # alternating fast and slow formulas: the pooled median sits in
        # the gap and follows one outlier, the class median does not
        fast, slow = [10, 11, 12], [50, 51, 52]
        values = [x for pair in zip(fast, slow) for x in pair]
        classes = [0, 1] * 3
        self.assertAlmostEqual(ledger.class_median(values, classes), 31.0)
        self.assertAlmostEqual(ledger.class_median(values + [49], classes + [1]), (3 * 11 + 4 * 50.5) / 7)
        self.assertEqual(ledger.class_median([], []), 0.0)


class Probes(unittest.TestCase):
    def test_local_probe_uses_window(self):
        probes = [(0.0, 1.0), (0.5, 1.0), (10.0, 3.0), (10.2, 3.0), (10.4, 3.0)]
        old = ledger.PROBE_LEAST
        ledger.PROBE_LEAST = 2
        try:
            self.assertEqual(ledger.local_probe_ms(probes, 10.1, 10.3), 3.0)
            # nothing within the pad: the nearest ones stand in
            self.assertEqual(ledger.local_probe_ms(probes, 2.0, 2.1), 1.0)
        finally:
            ledger.PROBE_LEAST = old

    def test_interquartile_mean(self):
        # a preempted probe (9.0) does not count; two cores' speeds average
        self.assertAlmostEqual(ledger.interquartile_mean([1.0, 1.0, 2.0, 2.0, 2.0, 9.0, 1.0, 0.1]), 1.5)
        self.assertEqual(ledger.interquartile_mean([3.0]), 3.0)
        self.assertEqual(ledger.interquartile_mean([]), 0.0)

    def test_scaling_to_nominal(self):
        n = ledger.NOMINAL_PROBE_MS
        # a host half as fast doubles both the op and the probe
        self.assertAlmostEqual(ledger.at_nominal(40.0, 2 * n), 20.0)
        probes = [(t / 10.0, 2 * n) for t in range(20)]
        self.assertAlmostEqual(ledger.at_nominal(30.0, ledger.local_probe_ms(probes, 0.5, 0.53)), 15.0)


class FailedRatio(unittest.TestCase):
    def test_non_ok_responses_fail(self):
        replies = [
            {"status": "ok", "produced": 10, "requested": 10},
            {"status": "rejected"},
            {"status": "deadline_miss"},
            {"status": "error"},
        ]
        failed = ledger.failed_replies(replies)
        self.assertEqual(failed, 3)
        self.assertAlmostEqual(ledger.failed_ratio(failed, len(replies)), 0.75)

    def test_partial_ok_fails(self):
        replies = [
            {"status": "ok", "produced": 9, "requested": 10},
            {"status": "ok", "produced": 10, "requested": 10},
        ]
        self.assertEqual(ledger.failed_replies(replies), 1)

    def test_empty(self):
        self.assertEqual(ledger.failed_ratio(0, 0), 0.0)


class SelfTime(unittest.TestCase):
    def test_nested_spans(self):
        # a [0,100] contains b [10,40] which contains c [20,30]
        evs = [B("a", 0), B("b", 10), B("c", 20), E("c", 30), E("b", 40), E("a", 100)]
        L = ledger.Ledger(evs)
        self.assertEqual(L.self_us["a"], 70)
        self.assertEqual(L.self_us["b"], 20)
        self.assertEqual(L.self_us["c"], 10)
        self.assertEqual(L.lane_us, 100)
        self.assertEqual(L.balance_us(), 0)

    def test_siblings_and_gaps(self):
        # two siblings with an uncovered gap between them
        evs = [B("x", 0), E("x", 10), B("y", 15), E("y", 30), B("x", 30), E("x", 35)]
        L = ledger.Ledger(evs)
        self.assertEqual(L.self_us["x"], 15)
        self.assertEqual(L.self_us["y"], 15)
        self.assertEqual(L.count["x"], 2)
        self.assertEqual(sorted(L.instances["x"]), [5, 10])
        self.assertEqual(L.unattributed_us, 5)
        self.assertAlmostEqual(L.unattributed_share(), 5 / 35)
        self.assertEqual(L.balance_us(), 0)

    def test_lanes_sum(self):
        # the same name on two lanes sums; lanes are nested separately
        evs = [
            B("root", 0, tid=0),
            B("w", 5, tid=1),
            B("s", 10, tid=0),
            B("s", 12, tid=1),
            E("s", 20, tid=0),
            E("s", 32, tid=1),
            E("w", 40, tid=1),
            E("root", 50, tid=0),
        ]
        L = ledger.Ledger(evs, roots=("root",))
        self.assertEqual(L.self_s("s") * 1e6, 30)
        self.assertEqual(L.self_us["w"], 15)
        self.assertNotIn("root", L.self_us)
        self.assertEqual(L.unattributed_us, 40)  # root's self time
        self.assertEqual(L.lane_us, 50 + 35)
        self.assertEqual(L.balance_us(), 0)

    def test_window_clips(self):
        evs = [B("a", 0), B("b", 10), E("b", 40), E("a", 100)]
        L = ledger.Ledger(evs, window=(20, 60))
        self.assertEqual(L.self_us["b"], 20)
        self.assertEqual(L.self_us["a"], 20)
        self.assertEqual(L.lane_us, 40)
        self.assertEqual(L.count["b"], 0)  # began before the window
        self.assertEqual(L.balance_us(), 0)

    def test_nested_counts(self):
        evs = [B("d", 0), B("q", 1), E("q", 2), E("d", 3), B("q", 4), E("q", 5)]
        L = ledger.Ledger(evs)
        self.assertEqual(L.count["q"], 2)
        self.assertEqual(L.nested[("d", "q")], 1)

    def test_busy_share(self):
        # lane 0 submits a batch [10, 50]; lane 1 idles in its worker span
        evs = [
            B("run", 0, tid=0),
            B("batch", 10, tid=0),
            B("item", 10, tid=0),
            E("item", 30, tid=0),
            E("batch", 50, tid=0),
            E("run", 60, tid=0),
            B("worker", 0, tid=1),
            B("item", 10, tid=1),
            E("item", 50, tid=1),
            E("worker", 60, tid=1),
        ]
        L = ledger.Ledger(evs, idle=("batch", "worker"), busy_intervals=[(10, 50)])
        # lane 0 busy 20 of 40, lane 1 busy 40 of 40
        self.assertEqual(L.busy_us, 60)

    def test_failed_cores(self):
        evs = [
            B("bench.formula", 0, sampling=3),
            B("approxmc.core", 1, tid=1),
            B("approxmc.hash_size", 1, tid=1, m=1),
            E("approxmc.hash_size", 2, tid=1),
            B("approxmc.hash_size", 2, tid=1, m=2),
            E("approxmc.hash_size", 3, tid=1),
            E("approxmc.core", 3, tid=1),
            B("approxmc.core", 4, tid=1),
            B("approxmc.hash_size", 4, tid=1, m=3),
            E("approxmc.hash_size", 5, tid=1),
            E("approxmc.core", 5, tid=1),
            E("bench.formula", 10),
        ]
        L = ledger.Ledger(evs)
        formulas = ledger.span_intervals(evs, "bench.formula")
        self.assertEqual(L.count["approxmc.core"], 2)
        self.assertEqual(ledger.failed_cores(L, formulas), 1)

    def test_read_trace_and_clock(self):
        # the Obs.Trace layout: one event per line, commas leading
        events = [
            {"name": "bench.clock", "ph": "i", "ts": 5.0, "tid": 0, "args": {"abs_us": "1005.0"}},
            B("a", 6),
            E("a", 9),
        ]
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "t.json")
            with open(path, "w") as f:
                f.write("[\n" + ",\n".join(json.dumps(e) for e in events) + "\n]\n")
            read = list(ledger.read_trace(path))
        self.assertEqual(read, events)
        self.assertEqual(ledger.clock_offset_us(read), 1000.0)


if __name__ == "__main__":
    unittest.main()
