"""Tests of the benchmark's percentile, lateness, backlog and max-rate rules.

    python3 -m unittest discover -s perfbench/tests
"""

import math
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import rules  # noqa: E402
from rules import Sample  # noqa: E402


def on_time(rate, n, service_s, start=0.0):
    """n requests every 1/rate s, each sent on time and answered after
    service_s."""
    return [Sample(due=start + i / rate, sent=start + i / rate,
                   done=start + i / rate + service_s, ok=True)
            for i in range(n)]


def step(rate, p90_ms=10.0, late_ms=0.0, grew=False):
    return rules.StepResult(rate=rate, scheduled=100, sent=100, failed=0,
                            p50_ms=p90_ms / 2, p90_ms=p90_ms,
                            late_p99_ms=late_ms, backlog_grew=grew)


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(rules.percentile(values, 50), 50)
        self.assertEqual(rules.percentile(values, 90), 90)
        self.assertEqual(rules.percentile(values, 99), 99)
        self.assertEqual(rules.percentile(values, 100), 100)

    def test_order_does_not_matter(self):
        self.assertEqual(rules.percentile([5, 1, 4, 2, 3], 50), 3)

    def test_small_samples_round_up(self):
        self.assertEqual(rules.percentile([7], 90), 7)
        self.assertEqual(rules.percentile([1, 2], 50), 1)
        self.assertEqual(rules.percentile([1, 2], 51), 2)
        self.assertEqual(rules.percentile([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], 90),
                         9)

    def test_rejects_empty_and_out_of_range(self):
        with self.assertRaises(ValueError):
            rules.percentile([], 50)
        with self.assertRaises(ValueError):
            rules.percentile([1], 0)
        with self.assertRaises(ValueError):
            rules.percentile([1], 101)

    def test_failed_request_misses_every_limit(self):
        samples = on_time(40, 8, 0.010)
        samples += [Sample(due=1.0, sent=1.0, done=1.001, ok=False),
                    Sample(due=1.1, sent=1.1, done=1.101, ok=False)]
        self.assertTrue(math.isinf(samples[-1].latency_ms()))
        r = rules.summarize_step(40, samples)
        self.assertEqual(r.failed, 2)
        self.assertAlmostEqual(r.p50_ms, 10.0)
        self.assertTrue(math.isinf(r.p90_ms))
        self.assertFalse(r.met)


class LatenessTest(unittest.TestCase):
    def test_latency_counts_from_due_time(self):
        # Sent 30 ms late, answered 10 ms after sending: 40 ms from due.
        s = Sample(due=1.0, sent=1.030, done=1.040, ok=True)
        self.assertAlmostEqual(s.late_ms(), 30.0)
        self.assertAlmostEqual(s.latency_ms(), 40.0)

    def test_on_time_generator_is_not_late(self):
        r = rules.summarize_step(40, on_time(40, 200, 0.012))
        self.assertAlmostEqual(r.late_p99_ms, 0.0)
        self.assertFalse(r.generator_late)
        self.assertTrue(r.met)

    def test_late_generator_fails_the_step(self):
        samples = on_time(40, 200, 0.012)
        for s in samples[-5:]:  # 2.5% of requests sent 30 ms late
            s.sent += 0.030
            s.done += 0.030
        r = rules.summarize_step(40, samples)
        self.assertGreater(r.late_p99_ms, rules.LATE_LIMIT_MS)
        self.assertTrue(r.generator_late)
        self.assertFalse(r.met)

    def test_unsent_requests_have_no_lateness_but_miss_latency(self):
        samples = on_time(40, 10, 0.012)
        samples.append(Sample(due=0.5))
        r = rules.summarize_step(40, samples)
        self.assertEqual(r.scheduled, 11)
        self.assertEqual(r.sent, 10)
        self.assertTrue(math.isinf(samples[-1].latency_ms()))


class BacklogTest(unittest.TestCase):
    def test_steady_service_keeps_backlog_flat(self):
        series = rules.backlog_series(on_time(40, 120, 0.012))
        self.assertEqual(set(series), {1})
        self.assertFalse(rules.backlog_grew(series))

    def test_slow_service_grows_backlog(self):
        # Due every 10 ms, served one at a time in 15 ms each.
        samples = []
        free = 0.0
        for i in range(120):
            due = i * 0.010
            start = max(due, free)
            free = start + 0.015
            samples.append(Sample(due=due, sent=start, done=free, ok=True))
        r = rules.summarize_step(100, samples)
        self.assertTrue(r.backlog_grew)
        self.assertFalse(r.met)

    def test_unanswered_requests_stay_in_the_backlog(self):
        samples = on_time(40, 30, 0.012)
        samples += [Sample(due=0.75 + i / 40) for i in range(30)]
        self.assertTrue(rules.backlog_grew(rules.backlog_series(samples)))

    def test_short_series_never_grows(self):
        self.assertFalse(rules.backlog_grew([0, 5]))


class ScaleTest(unittest.TestCase):
    def test_host_drift_cancels(self):
        # The same work on a host at half speed: time and calibration both
        # double.
        fast = 1.5 * rules.host_scale([8.0, 7.0, 9.0], 7.0)
        slow = 3.0 * rules.host_scale([16.0, 14.0, 18.0], 7.0)
        self.assertEqual(fast, slow)
        self.assertEqual(fast, 1.5)

    def test_scale_is_the_fastest_calibration(self):
        self.assertEqual(rules.host_scale([4.0, 8.0, 100.0], 8.0), 2.0)
        # Best-of-N work over best-of-N kernel: the same whichever share of
        # the run the host spent in its slow state.
        mostly_fast = min([1.0, 1.0, 1.0, 2.0]) * rules.host_scale(
            [8.0, 8.0, 8.0, 16.0], 8.0)
        mostly_slow = min([2.0, 2.0, 2.0, 1.0]) * rules.host_scale(
            [16.0, 16.0, 16.0, 8.0], 8.0)
        self.assertEqual(mostly_fast, mostly_slow)

    def test_rejects_missing_or_bad_calibration(self):
        with self.assertRaises(ValueError):
            rules.host_scale([], 8.0)
        with self.assertRaises(ValueError):
            rules.host_scale([8.0, 0.0], 8.0)

    def test_step_latency_is_scaled_but_lateness_is_not(self):
        samples = on_time(40, 40, 0.010)
        for s in samples:
            s.sent += 0.002
        plain = rules.summarize_step(40, samples)
        half = rules.summarize_step(40, samples, scale=0.5)
        self.assertAlmostEqual(half.p50_ms, plain.p50_ms / 2)
        self.assertAlmostEqual(half.p90_ms, plain.p90_ms / 2)
        self.assertAlmostEqual(half.late_p99_ms, plain.late_p99_ms)
        self.assertEqual(half.scale, 0.5)


class MaxRateTest(unittest.TestCase):
    def test_highest_met_rate(self):
        steps = [step(20), step(40), step(60), step(120, p90_ms=400)]
        self.assertEqual(rules.max_rate(steps), 60)

    def test_p90_at_limit_is_met(self):
        self.assertEqual(rules.max_rate([step(20, p90_ms=rules.P90_LIMIT_MS)]),
                         20)

    def test_each_rule_fails_a_step(self):
        for bad in (step(60, p90_ms=rules.P90_LIMIT_MS + 0.1),
                    step(60, late_ms=rules.LATE_LIMIT_MS + 0.1),
                    step(60, grew=True)):
            self.assertEqual(rules.max_rate([step(20), step(40), bad]), 40)

    def test_a_failed_lower_rate_caps_the_result(self):
        steps = [step(20), step(40, grew=True), step(60), step(120)]
        self.assertEqual(rules.max_rate(steps), 20)

    def test_order_of_steps_does_not_matter(self):
        steps = [step(120, grew=True), step(40), step(20), step(60)]
        self.assertEqual(rules.max_rate(steps), 60)

    def test_nothing_met_reads_zero(self):
        self.assertEqual(rules.max_rate([step(20, grew=True), step(40)]), 0)


if __name__ == "__main__":
    unittest.main()
