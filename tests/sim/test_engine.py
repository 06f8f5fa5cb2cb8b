"""Tests for the discrete-event engine."""

import collections

import pytest
from hypothesis import given, strategies as st

from repro.sim.engine import Event, Simulator, SimulationError


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(300, fired.append, "c")
    sim.schedule(100, fired.append, "a")
    sim.schedule(200, fired.append, "b")
    sim.run()
    assert fired == ["a", "b", "c"]
    assert sim.now == 300


def test_same_time_events_fire_in_insertion_order():
    sim = Simulator()
    fired = []
    for tag in range(5):
        sim.schedule(50, fired.append, tag)
    sim.run()
    assert fired == [0, 1, 2, 3, 4]


def test_cancel_prevents_firing():
    sim = Simulator()
    fired = []
    event = sim.schedule(10, fired.append, "x")
    sim.schedule(5, event.cancel)
    sim.run()
    assert fired == []


def test_cancel_after_fire_is_noop():
    sim = Simulator()
    fired = []
    event = sim.schedule(1, fired.append, "x")
    sim.run()
    event.cancel()
    assert fired == ["x"]


def test_run_until_stops_clock_exactly():
    sim = Simulator()
    sim.schedule(100, lambda: None)
    sim.schedule(500, lambda: None)
    sim.run(until=250)
    assert sim.now == 250
    sim.run(until=600)
    assert sim.now == 600


def test_run_until_does_not_fire_later_events():
    sim = Simulator()
    fired = []
    sim.schedule(100, fired.append, "early")
    sim.schedule(300, fired.append, "late")
    sim.run(until=200)
    assert fired == ["early"]
    sim.run(until=400)
    assert fired == ["early", "late"]


def test_schedule_in_past_raises():
    sim = Simulator()
    sim.schedule(10, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(5, lambda: None)
    with pytest.raises(SimulationError):
        sim.schedule(-1, lambda: None)


def test_events_scheduled_during_run_fire():
    sim = Simulator()
    fired = []

    def first():
        fired.append("first")
        sim.schedule(10, fired.append, "second")

    sim.schedule(5, first)
    sim.run()
    assert fired == ["first", "second"]
    assert sim.now == 15


def test_zero_delay_event_fires_after_current():
    sim = Simulator()
    fired = []

    def outer():
        sim.schedule(0, fired.append, "inner")
        fired.append("outer")

    sim.schedule(1, outer)
    sim.run()
    assert fired == ["outer", "inner"]


def test_pending_count():
    sim = Simulator()
    assert sim.pending_count() == 0
    a = sim.schedule(10, lambda: None)
    sim.schedule(20, lambda: None)
    assert sim.pending_count() == 2
    a.cancel()
    assert sim.pending_count() == 1


def test_reentrant_run_raises():
    sim = Simulator()

    def nested():
        sim.run()

    sim.schedule(1, nested)
    with pytest.raises(SimulationError):
        sim.run()


@given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=60))
def test_firing_order_is_sorted_and_stable(delays):
    """Property: events fire sorted by time, insertion order breaking ties."""
    sim = Simulator()
    fired = []
    for index, delay in enumerate(delays):
        sim.schedule(delay, fired.append, (delay, index))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


@given(
    st.lists(st.integers(min_value=0, max_value=1000), min_size=2, max_size=40),
    st.data(),
)
def test_cancellation_subset_property(delays, data):
    """Property: cancelled events never fire; all others always do."""
    sim = Simulator()
    fired = []
    events = [sim.schedule(d, fired.append, i) for i, d in enumerate(delays)]
    to_cancel = data.draw(
        st.sets(st.integers(min_value=0, max_value=len(events) - 1))
    )
    for index in to_cancel:
        events[index].cancel()
    sim.run()
    assert set(fired) == set(range(len(delays))) - to_cancel


def test_order_key_places_event_by_born_then_seq():
    """A keyed event sorts by its (born, seq) among same-time events and
    consumes the pending key; the next schedule_at is ordinary again."""
    sim = Simulator()
    fired = []
    sim.schedule(10, fired.append, "born0")

    def at_five():
        sim.schedule_at(10, fired.append, "born5")
        sim.order_key = (3, 10**6)
        sim.schedule_at(10, fired.append, "keyed-born3")
        assert sim.order_key is None
        sim.schedule_at(10, fired.append, "born5-later")

    sim.schedule(5, at_five)
    sim.run()
    assert fired == ["born0", "keyed-born3", "born5", "born5-later"]


def test_current_is_the_dispatching_event():
    sim = Simulator()
    seen = []
    event = sim.schedule(7, lambda: seen.append(sim.current))
    later = sim.schedule(9, lambda: seen.append(sim.current))
    assert sim.current is None
    sim.run()
    assert seen == [event, later]
    # A run that drains the queue clears it.
    assert sim.current is None


def test_next_seq_takes_a_scheduling_slot():
    sim = Simulator()
    first = sim.schedule(5, lambda: None)
    rank = sim.next_seq()
    second = sim.schedule(5, lambda: None)
    assert first.seq < rank < second.seq


def test_rejected_schedule_at_consumes_order_key():
    """A ``schedule_at`` that raises still consumes the pending key, so
    the next, unrelated event is born now with a fresh seq."""
    sim = Simulator()
    first = sim.schedule(100, lambda: None)
    sim.run()
    sim.order_key = (5, 7)
    with pytest.raises(SimulationError):
        sim.schedule_at(50, lambda: None)
    assert sim.order_key is None
    event = sim.schedule_at(200, lambda: None)
    assert (event.born, event.seq) == (100, first.seq + 1)


def test_float_delays_and_times_truncate():
    sim = Simulator()
    sim.schedule(3, lambda: None)
    sim.run()
    fired = []
    delayed = sim.schedule(2.9, lambda: fired.append(sim.now))
    absolute = sim.schedule_at(7.99, lambda: fired.append(sim.now))
    # One granule out, so the wheel files the entry by its truncated time.
    far = sim.schedule((1 << 20) - 0.5, lambda: fired.append(sim.now))
    assert (delayed.time, absolute.time, far.time) == (5, 7, 3 + (1 << 20) - 1)
    sim.run()
    assert fired == [5, 7, 3 + (1 << 20) - 1]
    assert all(type(t) is int for t in fired)


def test_schedule_ignores_order_key_and_one_schedule_at_consumes_it():
    sim = Simulator()
    sim.order_key = (0, 10**6)
    plain = sim.schedule(5, lambda: None)
    assert sim.order_key == (0, 10**6)
    assert (plain.born, plain.seq) == (0, 0)
    keyed = sim.schedule_at(5, lambda: None)
    assert (keyed.born, keyed.seq) == (0, 10**6)
    assert sim.order_key is None
    after = sim.schedule_at(5, lambda: None)
    assert (after.born, after.seq) == (0, 1)


def test_pending_count_through_double_cancel_and_cancel_after_fire():
    sim = Simulator()
    near = sim.schedule(10, lambda: None)
    bucket = sim.schedule(5 << 20, lambda: None)
    far = sim.schedule(300 << 20, lambda: None)
    near.cancel()
    near.cancel()
    assert sim.pending_count() == 2
    sim.run(until=6 << 20)
    assert sim.pending_count() == 1
    bucket.cancel()
    assert sim.pending_count() == 1
    far.cancel()
    far.cancel()
    assert sim.pending_count() == 0
    sim.run()
    assert sim.pending_count() == 0


def test_entry_points_count_once_under_class_wrappers(monkeypatch):
    """Wrapping ``schedule``, ``schedule_at``, ``run`` and ``Event.cancel``
    on their classes, as the benchmark's span tracer does, counts each call
    exactly once: none of them reaches another through ``self``."""
    calls = collections.Counter()

    def count(cls, name):
        original = cls.__dict__[name]

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(cls, name, wrapper)

    for cls, name in (
        (Simulator, "schedule"),
        (Simulator, "schedule_at"),
        (Simulator, "run"),
        (Event, "cancel"),
    ):
        count(cls, name)
    sim = Simulator()
    doomed = sim.schedule(10, lambda: None)
    sim.order_key = (0, 99)
    sim.schedule_at(20, lambda: None)
    sim.schedule_at(30, doomed.cancel)
    doomed.cancel()
    sim.run()
    assert calls == {"schedule": 1, "schedule_at": 2, "run": 1, "cancel": 2}
