"""Self-tests for the benchmark's statistics: python3 -m unittest discover perfbench"""

import statistics
import unittest

import benchstats


class MedianTest(unittest.TestCase):
    def test_odd_and_even(self):
        self.assertEqual(benchstats.median([3, 1, 2]), 2)
        self.assertEqual(benchstats.median([4, 1, 3, 2]), 2.5)

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            benchstats.median([])


class QuartileTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [0.91, 1.07, 1.02, 0.98, 1.11, 0.95, 1.0, 1.04, 0.99, 1.03]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        self.assertEqual(benchstats.quartiles(values), (q1, q2, q3))
        self.assertAlmostEqual(benchstats.relative_spread(values), (q3 - q1) / q2)

    def test_single_value(self):
        self.assertEqual(benchstats.quartiles([5.0]), (5.0, 5.0, 5.0))
        self.assertEqual(benchstats.relative_spread([5.0]), 0.0)

    def test_constant_values_have_no_spread(self):
        self.assertEqual(benchstats.relative_spread([7, 7, 7, 7]), 0.0)

    def test_spread_of_zero_median(self):
        self.assertEqual(benchstats.relative_spread([0, 0, 0]), 0.0)
        self.assertEqual(benchstats.relative_spread([-1, 0, 1]), float("inf"))


class RatioTest(unittest.TestCase):
    def test_ratio(self):
        self.assertEqual(benchstats.ratio(3, 4), 0.75)
        self.assertEqual(benchstats.ratio(3, 0), 0.0)


if __name__ == "__main__":
    unittest.main()
