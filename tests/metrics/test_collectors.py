"""Tests for the measurement primitives."""

import pytest
from hypothesis import given, strategies as st

from repro.metrics.collectors import Counter, LatencyReservoir, StateTimer


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        counter = Counter()
        assert counter.value == 0
        counter.inc()
        counter.inc(4)
        assert int(counter) == 5


class TestStateTimer:
    def test_accumulates_per_state(self):
        timer = StateTimer("idle", now=0)
        timer.transition("busy", 100)
        timer.transition("idle", 250)
        timer.flush(400)
        assert timer.total("idle") == 100 + 150
        assert timer.total("busy") == 150

    def test_flush_is_idempotent(self):
        timer = StateTimer("a", now=0)
        timer.flush(10)
        timer.flush(10)
        assert timer.total("a") == 10

    def test_time_backwards_raises(self):
        timer = StateTimer("a", now=100)
        with pytest.raises(ValueError):
            timer.transition("b", 50)

    def test_repeated_same_state_transitions(self):
        timer = StateTimer("a", now=0)
        timer.transition("a", 5)
        timer.transition("a", 9)
        assert timer.total("a") == 9

    @given(st.lists(st.tuples(st.sampled_from("abc"), st.integers(1, 100)), max_size=30))
    def test_totals_sum_to_elapsed(self, steps):
        """Property: state totals always sum to total observed time."""
        timer = StateTimer("a", now=0)
        now = 0
        for state, delta in steps:
            now += delta
            timer.transition(state, now)
        timer.flush(now)
        assert sum(timer.totals.values()) == now


class TestLatencyReservoir:
    def test_percentiles_nearest_rank(self):
        reservoir = LatencyReservoir()
        for value in range(1, 101):
            reservoir.record(value)
        assert reservoir.percentile(0.50) == 50
        assert reservoir.percentile(0.99) == 99
        assert reservoir.percentile(1.0) == 100
        assert reservoir.percentile(0.0) == 1

    def test_empty_raises(self):
        reservoir = LatencyReservoir()
        with pytest.raises(ValueError):
            reservoir.percentile(0.5)
        with pytest.raises(ValueError):
            reservoir.mean()

    def test_cdf_monotone(self):
        reservoir = LatencyReservoir()
        for value in (5, 1, 9, 3):
            reservoir.record(value)
        cdf = reservoir.cdf()
        values = [v for v, _ in cdf]
        fractions = [f for _, f in cdf]
        assert values == sorted(values)
        assert fractions == sorted(fractions)
        assert fractions[-1] == pytest.approx(1.0)

    @given(st.lists(st.integers(0, 10**9), min_size=1, max_size=200))
    def test_summary_bounds(self, values):
        """Property: min <= p50 <= p99 <= max, and mean within [min, max]."""
        reservoir = LatencyReservoir()
        for value in values:
            reservoir.record(value)
        p50, p99 = reservoir.percentile(0.50), reservoir.percentile(0.99)
        assert reservoir.min() <= p50 <= p99 <= reservoir.max()
        assert reservoir.min() <= reservoir.mean() <= reservoir.max()
        assert len(reservoir) == len(values)
