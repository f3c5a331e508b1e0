"""Unit tests of perfbench/spread.py's quartile and regression math.

    python3 -m unittest discover -s perfbench/tests -p 'test_*.py'
"""

import math
import pathlib
import sys
import unittest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]))

import spread  # noqa: E402


class QuartileSpread(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        med, q1, q3, s = spread.quartile_spread(list(range(1, 11)))
        self.assertEqual((q1, med, q3), (2.75, 5.5, 8.25))
        self.assertAlmostEqual(s, (8.25 - 2.75) / 5.5)

    def test_order_does_not_matter(self):
        self.assertEqual(spread.quartile_spread([3, 1, 2, 5, 4]),
                         spread.quartile_spread([1, 2, 3, 4, 5]))

    def test_zero_median_is_infinite_spread(self):
        self.assertTrue(math.isinf(spread.quartile_spread([-1, 0, 0, 1])[3]))


class WorseBy(unittest.TestCase):
    def test_lower_is_better(self):
        self.assertAlmostEqual(spread.worse_by(10.0, 12.0, "lower"), 0.2)
        self.assertAlmostEqual(spread.worse_by(10.0, 8.0, "lower"), -0.2)

    def test_higher_is_better(self):
        self.assertAlmostEqual(spread.worse_by(10.0, 8.0, "higher"), 0.2)
        self.assertAlmostEqual(spread.worse_by(10.0, 12.0, "higher"), -0.2)

    def test_zero_baseline(self):
        self.assertEqual(spread.worse_by(0.0, 0.0, "lower"), 0.0)
        self.assertTrue(math.isinf(spread.worse_by(0.0, 1.0, "lower")))


class Seeds(unittest.TestCase):
    def test_ranges(self):
        self.assertEqual(spread.parse_seeds("1-3"), [1, 2, 3])
        self.assertEqual(spread.parse_seeds("7"), [7])


if __name__ == "__main__":
    unittest.main()
