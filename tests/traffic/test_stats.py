"""Tests for the statistics utilities."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.traffic.stats import (
    Histogram,
    P2Quantile,
    RunningStats,
    percentile,
)


class TestRunningStats:
    def test_empty(self):
        stats = RunningStats()
        assert stats.n == 0
        assert math.isnan(stats.mean)

    def test_single_value(self):
        stats = RunningStats()
        stats.add(5.0)
        assert stats.mean == 5.0
        assert stats.variance == 0.0
        assert stats.minimum == stats.maximum == 5.0

    def test_known_values(self):
        stats = RunningStats()
        stats.extend([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0])
        assert stats.mean == pytest.approx(5.0)
        assert stats.stdev == pytest.approx(2.138, rel=1e-3)

    def test_min_max(self):
        stats = RunningStats()
        stats.extend([3.0, -1.0, 10.0])
        assert stats.minimum == -1.0
        assert stats.maximum == 10.0

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                              allow_nan=False), min_size=2, max_size=100))
    @settings(max_examples=100, deadline=None)
    def test_property_matches_batch_formulas(self, values):
        stats = RunningStats()
        stats.extend(values)
        mean = sum(values) / len(values)
        assert stats.mean == pytest.approx(mean, rel=1e-9, abs=1e-6)
        var = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
        assert stats.variance == pytest.approx(var, rel=1e-6, abs=1e-3)


class TestPercentile:
    def test_empty_is_nan(self):
        assert math.isnan(percentile([], 50))

    def test_bounds_validation(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)

    def test_median_odd(self):
        assert percentile([3.0, 1.0, 2.0], 50) == 2.0

    def test_interpolation(self):
        assert percentile([1.0, 2.0], 50) == pytest.approx(1.5)

    def test_extremes(self):
        data = [5.0, 1.0, 9.0]
        assert percentile(data, 0) == 1.0
        assert percentile(data, 100) == 9.0

    def test_interpolation_never_rounds_below_lower_neighbour(self):
        values = [1.0, 1.0, 1.0000000000000002e-06, 1e-06]
        result = percentile(values, 1.0000000000000002e-06)
        assert percentile(values, 0) == 1e-06
        assert 1e-06 <= result <= 1.0000000000000002e-06

    @given(st.lists(st.floats(min_value=1e-6, max_value=1e6,
                              allow_nan=False, allow_subnormal=False),
                    min_size=1, max_size=50),
           st.floats(min_value=0, max_value=100))
    @settings(max_examples=100, deadline=None)
    def test_property_within_range_and_monotone(self, values, q):
        result = percentile(values, q)
        tolerance = 1e-12 * max(values)
        assert min(values) - tolerance <= result <= max(values) + tolerance
        assert percentile(values, 0) <= result <= percentile(values, 100)


class TestHistogram:
    def test_validation(self):
        with pytest.raises(ValueError):
            Histogram(1.0, 1.0, 4)
        with pytest.raises(ValueError):
            Histogram(0.0, 1.0, 0)

    def test_binning(self):
        hist = Histogram(0.0, 10.0, 5)
        for value in (0.5, 2.5, 2.6, 9.9):
            hist.add(value)
        assert hist.counts == [1, 2, 0, 0, 1]

    def test_outliers(self):
        hist = Histogram(0.0, 1.0, 2)
        hist.add(-5.0)
        hist.add(2.0)
        assert hist.underflow == 1
        assert hist.overflow == 1
        assert hist.total == 2

    def test_boundary_goes_up(self):
        hist = Histogram(0.0, 10.0, 10)
        hist.add(10.0)
        assert hist.overflow == 1

    def test_edges(self):
        hist = Histogram(0.0, 4.0, 4)
        assert hist.edges() == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_render(self):
        hist = Histogram(0.0, 2.0, 2)
        hist.add(0.5)
        text = hist.render(width=10)
        assert "#" in text


class TestRunningStatsMerge:
    def test_merge_matches_sequential(self):
        left, right, reference = RunningStats(), RunningStats(), RunningStats()
        a = [1.0, 4.0, 2.5, 9.0]
        b = [3.0, 3.5, 8.0, 0.5, 7.5]
        for v in a:
            left.add(v)
            reference.add(v)
        for v in b:
            right.add(v)
            reference.add(v)
        left.merge(right)
        assert left.n == reference.n
        assert left.mean == pytest.approx(reference.mean)
        assert left.variance == pytest.approx(reference.variance)
        assert left.minimum == reference.minimum
        assert left.maximum == reference.maximum

    def test_merge_into_empty(self):
        left, right = RunningStats(), RunningStats()
        right.add(2.0)
        right.add(4.0)
        left.merge(right)
        assert left.n == 2
        assert left.mean == 3.0

    def test_merge_empty_is_noop(self):
        left = RunningStats()
        left.add(1.0)
        left.merge(RunningStats())
        assert left.n == 1


class TestP2Quantile:
    def test_exact_for_few_samples(self):
        est = P2Quantile(50)
        for v in (5.0, 1.0, 3.0):
            est.add(v)
        assert est.value == 3.0

    def test_empty_is_nan(self):
        assert math.isnan(P2Quantile(90).value)

    def test_invalid_quantile_rejected(self):
        with pytest.raises(ValueError):
            P2Quantile(101)

    def test_median_of_uniform_stream(self):
        import random
        rng = random.Random(7)
        est = P2Quantile(50)
        for _ in range(5000):
            est.add(rng.random())
        assert est.value == pytest.approx(0.5, abs=0.03)

    def test_p95_of_uniform_stream(self):
        import random
        rng = random.Random(11)
        est = P2Quantile(95)
        for _ in range(5000):
            est.add(rng.random())
        assert est.value == pytest.approx(0.95, abs=0.03)

    @given(st.lists(st.floats(min_value=0.0, max_value=1e6,
                              allow_nan=False), min_size=50, max_size=300))
    @settings(max_examples=25, deadline=None)
    def test_property_estimate_within_range(self, samples):
        est = P2Quantile(90)
        for v in samples:
            est.add(v)
        assert min(samples) <= est.value <= max(samples)

    def test_under_five_samples_every_count(self):
        """1..4 samples: exact linear-interpolated percentile, no P²."""
        values = (7.0, 2.0, 9.0, 4.0)
        for n in range(1, 5):
            est = P2Quantile(75)
            for v in values[:n]:
                est.add(v)
            assert est.n == n
            assert est.value == percentile(list(values[:n]), 75)

    def test_all_duplicate_samples(self):
        """A constant stream must estimate the constant — the marker
        update's parabolic step degenerates (equal heights) and has to
        fall back without dividing by zero."""
        est = P2Quantile(90)
        for _ in range(500):
            est.add(3.25)
        assert est.value == 3.25

    def test_heavy_ties_with_outlier(self):
        """Mostly-tied samples with one outlier: the estimate stays
        inside the data range despite degenerate middle markers."""
        est = P2Quantile(50)
        for i in range(200):
            est.add(1.0 if i % 50 else 100.0)
        assert 1.0 <= est.value <= 100.0
        assert est.value == pytest.approx(1.0, abs=5.0)

    def test_exactly_five_duplicates_then_more(self):
        est = P2Quantile(50)
        for _ in range(5):
            est.add(2.0)
        assert est.value == 2.0
        for _ in range(20):
            est.add(2.0)
        assert est.value == 2.0
