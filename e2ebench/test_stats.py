"""Unit tests of the benchmark's own statistics helpers.

    python3 -m unittest discover -s e2ebench -p 'test_*.py'
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402


class TailRule(unittest.TestCase):
    def test_picks_highest_percentile_with_ten_beyond(self):
        values = list(range(1, 1001))  # 1..1000
        pct, value, n = stats.tail(values)
        # p99 leaves 10 samples beyond rank 990; p99.5 would leave 5.
        self.assertEqual((pct, value, n), (99.0, 990, 1000))

    def test_fewer_samples_fall_back_down_the_ladder(self):
        values = list(range(1, 201))  # 200 samples
        pct, value, _ = stats.tail(values)
        # p95 leaves 10 beyond rank 190; p98 would leave 4.
        self.assertEqual((pct, value), (95.0, 190))

    def test_order_of_samples_does_not_matter(self):
        values = list(range(1, 201))
        self.assertEqual(stats.tail(values[::-1]), stats.tail(values))

    def test_too_few_samples_report_the_maximum(self):
        pct, value, n = stats.tail([3.0, 1.0, 2.0])
        self.assertEqual((pct, value, n), (100.0, 3.0, 3))

    def test_exactly_ten_beyond_the_median(self):
        pct, value, _ = stats.tail(list(range(1, 21)))
        self.assertEqual((pct, value), (50.0, 10))


class LatencyFromDue(unittest.TestCase):
    def test_latency_counts_from_due_not_from_send(self):
        # Due at 0 ms, sent 5 ms late, done at 12 ms: the latency is 12 ms,
        # not the 7 ms a send-based clock would report.
        self.assertEqual(stats.latencies_ms([0], [12_000_000]), [12.0])

    def test_a_stall_shows_in_every_later_op(self):
        due = [0, 10_000_000, 20_000_000]
        done = [30_000_000, 31_000_000, 32_000_000]
        self.assertEqual(stats.latencies_ms(due, done), [30.0, 21.0, 12.0])

    def test_done_before_due_is_rejected(self):
        with self.assertRaises(ValueError):
            stats.latencies_ms([10], [5])


class GeneratorSchedule(unittest.TestCase):
    def test_prompt_sends_keep_the_schedule(self):
        self.assertTrue(stats.kept_schedule([0.05] * 100, 40.0))

    def test_one_late_send_in_a_hundred_is_tolerated(self):
        self.assertTrue(stats.kept_schedule([0.05] * 99 + [15.0], 40.0))

    def test_many_late_sends_mean_it_fell_behind(self):
        self.assertFalse(stats.kept_schedule([0.05] * 98 + [15.0] * 2, 40.0))

    def test_a_slow_median_means_it_fell_behind(self):
        self.assertFalse(stats.kept_schedule([1.5] * 100, 40.0))


class SelfTime(unittest.TestCase):
    def test_self_is_span_minus_children(self):
        spans = [(0, -1, "op", 0, 100), (1, 0, "a", 10, 40),
                 (2, 0, "b", 50, 70)]
        self.assertEqual(stats.self_times(spans), {0: 50, 1: 30, 2: 20})

    def test_overlapping_children_count_once(self):
        spans = [(0, -1, "frame", 0, 100), (1, 0, "x", 10, 60),
                 (2, 0, "y", 40, 80)]
        self.assertEqual(stats.self_times(spans)[0], 30)

    def test_children_are_clipped_to_the_parent(self):
        spans = [(0, -1, "p", 10, 20), (1, 0, "c", 0, 15)]
        self.assertEqual(stats.self_times(spans)[0], 5)

    def test_grandchildren_do_not_reduce_the_grandparent_twice(self):
        spans = [(0, -1, "op", 0, 100), (1, 0, "svd", 0, 60),
                 (2, 1, "qr", 0, 50)]
        self.assertEqual(stats.self_times(spans), {0: 40, 1: 10, 2: 50})

    def test_totals_by_name(self):
        spans = [(0, -1, "op", 0, 10), (1, 0, "qr", 0, 4),
                 (2, -1, "op", 20, 30), (3, 2, "qr", 20, 26)]
        self.assertEqual(stats.self_time_by_name(spans), {"op": 10, "qr": 10})


if __name__ == "__main__":
    unittest.main()
