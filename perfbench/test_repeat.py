"""Tests of the cross-run arithmetic in repeat.py.

Run from the repository root: python3 -m unittest perfbench/test_repeat.py
"""

import contextlib
import io
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from repeat import report, seeds, spread, worse_by  # noqa: E402


class SpreadTest(unittest.TestCase):
    def test_quartile_distance_over_median(self):
        # quantiles([1..10], n=4) == [2.75, 5.5, 8.25]; median 5.5
        self.assertAlmostEqual(spread(list(range(1, 11))), 1.0)
        # quantiles([1, 1.1, 1.2, 1.3, 5], n=4) == [1.05, 1.2, 3.15]
        self.assertAlmostEqual(spread([1.0, 1.1, 1.2, 1.3, 5.0]), 2.1 / 1.2)
        self.assertIsNone(spread([3.0]))
        self.assertIsNone(spread([0.0, 0.0]))

    def test_order_does_not_matter(self):
        self.assertEqual(spread([5, 1, 4, 2, 3]), spread([1, 2, 3, 4, 5]))

    def test_worse_by_follows_the_better_direction(self):
        self.assertAlmostEqual(worse_by(100.0, 110.0, "lower"), 0.10)
        self.assertAlmostEqual(worse_by(100.0, 110.0, "higher"), -0.10)
        self.assertAlmostEqual(worse_by(100.0, 80.0, "higher"), 0.20)

    def test_seed_ranges(self):
        self.assertEqual(seeds("1-3"), [1, 2, 3])
        self.assertEqual(seeds("7"), [7])


def record(value, correct=True):
    return {"result": {"correct": correct, "metrics": {"setup_s": {"value": value}}}}


class ReportTest(unittest.TestCase):
    SPEC = {"end_to_end": [{"name": "setup_s", "unit": "s", "better": "lower",
                            "bound": 0.25}]}

    def judge(self, records):
        with contextlib.redirect_stdout(io.StringIO()):
            return report(self.SPEC, {"w": records}, None)

    def test_steady_correct_runs_pass(self):
        self.assertTrue(self.judge([record(v) for v in (1.0, 1.01, 0.99, 1.0)]))

    def test_an_incorrect_run_fails(self):
        runs = [record(v) for v in (1.0, 1.01, 0.99, 1.0)] + [record(1.0, False)]
        self.assertFalse(self.judge(runs))

    def test_setup_s_spread_is_judged(self):
        self.assertFalse(self.judge([record(v) for v in (1.0, 2.0, 0.5, 1.5)]))


if __name__ == "__main__":
    unittest.main()
