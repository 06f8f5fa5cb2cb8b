"""Wheel-vs-heap engine equivalence.

The simulator's timer wheel must be observationally identical to the
binary-heap oracle (:mod:`tests.sim.heap_queue`): the (time, born, seq)
total order fully determines firing order, so any correct priority queue
produces the same simulation.  These tests drive both queues through the
same program — including cancellations, nested scheduling, and delays
spanning granule/window/far-heap boundaries — and require identical traces.
"""

import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.engine import _COMPACT_FLOOR
from tests.sim.heap_queue import simulator

#: Wheel geometry, mirrored from the engine: ~1.05 ms granules, ~268 ms window.
GRANULE = 1 << 20
WINDOW = GRANULE * 256

#: Delay pool biased towards the wheel's structural boundaries.
_boundary_delays = st.sampled_from(
    [
        0,
        1,
        GRANULE - 1,
        GRANULE,
        GRANULE + 1,
        WINDOW - GRANULE,
        WINDOW - 1,
        WINDOW,
        WINDOW + 1,
        3 * WINDOW + 12345,
    ]
)
_delays = st.one_of(
    st.integers(min_value=0, max_value=4 * WINDOW),
    _boundary_delays,
)


def _run_program(engine, schedules, cancel_indices, followups):
    """Execute one schedule/cancel program, returning the full trace."""
    sim = simulator(engine)
    fired = []
    events = []

    def make_fn(label, extra_delay):
        def fn():
            fired.append((sim.now, label))
            if extra_delay is not None:
                sim.schedule(extra_delay, fired.append, (sim.now, ("nested", label)))

        return fn

    for label, (delay, followup_slot) in enumerate(schedules):
        extra = followups[followup_slot] if followup_slot is not None else None
        events.append(sim.schedule(delay, make_fn(label, extra)))
    for index in cancel_indices:
        events[index % len(events)].cancel()
    sim.run()
    return fired, sim.now, sim.pending_count()


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(_delays, st.one_of(st.none(), st.integers(0, 3))),
        min_size=1,
        max_size=50,
    ),
    st.lists(st.integers(min_value=0, max_value=1000), max_size=10),
    st.tuples(_delays, _delays, _delays, _delays),
)
def test_wheel_and_heap_traces_identical(schedules, cancel_indices, followups):
    wheel = _run_program("wheel", schedules, cancel_indices, followups)
    heap = _run_program("heap", schedules, cancel_indices, followups)
    assert wheel == heap


def test_engines_agree_on_tick_chain_across_window():
    """A 1 ms tick chain walks every granule boundary across many windows."""

    def run(engine):
        sim = simulator(engine)
        fired = []

        def tick():
            fired.append(sim.now)
            if sim.now < 3 * WINDOW:
                sim.schedule(GRANULE - 7, tick)

        sim.schedule(0, tick)
        sim.run()
        return fired, sim.now

    assert run("wheel") == run("heap")


def test_engines_agree_with_interleaved_cancel_and_far_events():
    def run(engine):
        sim = simulator(engine)
        fired = []
        # A far event beyond the window, a bucket event, and a near chain
        # that cancels and reschedules the bucket event as it goes.
        far = sim.schedule(2 * WINDOW + 3, fired.append, "far")
        bucket = [sim.schedule(50 * GRANULE, fired.append, "bucket")]

        def churn(n):
            fired.append((sim.now, n))
            bucket[0].cancel()
            bucket[0] = sim.schedule(60 * GRANULE, fired.append, ("bucket", n))
            if n:
                sim.schedule(GRANULE // 3, churn, n - 1)

        sim.schedule(10, churn, 5)
        sim.run()
        assert far.cancelled
        return fired, sim.now, sim.pending_count()

    assert run("wheel") == run("heap")


def test_engines_agree_on_keyed_events():
    """Events keyed through ``order_key``, as guest tick chains schedule
    theirs, fire in the same order on both engines — across granules and
    windows, and interleaved with ordinary same-time events."""

    def run(engine):
        sim = simulator(engine)
        fired = []
        ranks = [sim.next_seq(), sim.next_seq()]

        def tick(chain, n):
            fired.append((sim.now, "tick", chain))
            sim.schedule(GRANULE, fired.append, (sim.now + GRANULE, "plain", chain))
            if n:
                due = sim.now + (n % 3 + 1) * GRANULE
                sim.order_key = (due - GRANULE, ranks[chain])
                sim.schedule_at(due, tick, chain, n - 1)

        for chain in (1, 0):
            sim.order_key = (0, ranks[chain])
            sim.schedule_at(GRANULE, tick, chain, 400)
        sim.run()
        return fired, sim.now

    assert run("wheel") == run("heap")


def _compaction_program(engine, seed):
    """Hundreds of events whose callbacks cancel most of the queue.

    The callbacks' cancels push the tombstone count past the compaction
    floor while the current granule still holds events, and the same
    callbacks then schedule into that granule, so the dispatch loop must
    pick up the heap compaction rebuilt.  Keyed (``order_key``) events,
    events a few granules out and events beyond the wheel window are
    mixed in.  Every random draw depends only on what has fired, so a
    correct engine of either kind makes the same draws.
    """
    rng = random.Random(seed)
    sim = simulator(engine)
    fired = []
    registry = []
    stats = {"cancels": 0, "compactions": [], "budget": 200}
    ranks = [sim.next_seq() for _ in range(100)]
    queue_class = type(sim._queue)
    compact = queue_class.compact

    def counting_compact(queue):
        compact(queue)
        stats["compactions"].append((sim.now, len(queue._cur_heap)))

    def spawn():
        now = sim.now
        kind = rng.random()
        if kind < 0.15 and ranks:
            # Keyed: born before now, so it sorts ahead of same-time
            # events scheduled now, as a re-armed guest tick does.
            due = now + rng.randrange(0, 3 * GRANULE)
            sim.order_key = (rng.randrange(0, now + 1), ranks.pop())
            registry.append(sim.schedule_at(due, step, len(registry)))
            return
        if kind < 0.3:
            delay = WINDOW + rng.randrange(0, 2 * WINDOW)
        elif kind < 0.45:
            delay = rng.randrange(GRANULE, 40 * GRANULE)
        else:
            # Same granule when there is room, so the event lands in the
            # current heap behind the ones the callback left pending.
            room = GRANULE - (now % GRANULE)
            delay = rng.randrange(0, room) if room > 1 else 0
        delay -= delay % 1000  # coarse times: many same-instant ties
        registry.append(sim.schedule(delay, step, len(registry)))

    def step(label):
        fired.append((sim.now, label))
        pending = [event for event in registry if not event.cancelled]
        for event in rng.sample(pending, min(len(pending), rng.choice((1, 2, 3)))):
            event.cancel()
            stats["cancels"] += 1
        if stats["budget"] > 0:
            stats["budget"] -= 1
            spawn()

    with mock.patch.object(queue_class, "compact", counting_compact):
        for _ in range(320):
            spawn()
        # Stop early, before the floor is reached, so that compaction
        # happens inside the one long run that follows.
        sim.run(until=GRANULE // 8)
        midway = (sim.now, sim.pending_count(), sim.snapshot_events())
        sim.run()
    return {
        "fired": fired,
        "midway": midway,
        "end": (sim.now, sim.pending_count(), sim.snapshot_events()),
        "scheduled": len(registry),
        "cancels": stats["cancels"],
        "compactions": stats["compactions"],
    }


def _exercised(result):
    """The program's result, once checked to have tested what it is for."""
    times = [now for now, _ in result["fired"]]
    assert times == sorted(times), "time went backwards"
    assert len({label for _, label in result["fired"]}) == len(result["fired"])
    assert result["scheduled"] >= 300
    assert result["cancels"] > _COMPACT_FLOOR
    assert result["end"][1:] == (0, [])
    # At least one compaction ran while the current granule still held
    # entries, so the loop had to switch to the rebuilt heap.
    assert any(held for _, held in result["compactions"]), result["compactions"]
    return result


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_engines_agree_through_compaction_mid_granule(seed):
    """Past the compaction floor with cancels issued mid-granule: both
    engines fire the same sequence in time order, end at the same clock
    and leave the same queue."""
    wheel = _exercised(_compaction_program("wheel", seed))
    heap = _exercised(_compaction_program("heap", seed))
    for key in ("fired", "midway", "end", "scheduled", "cancels"):
        assert wheel[key] == heap[key], key
