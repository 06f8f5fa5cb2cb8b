"""Wheel-vs-heap engine equivalence.

The simulator's timer wheel must be observationally identical to the
binary-heap oracle (:mod:`tests.sim.heap_queue`): the (time, born, seq)
total order fully determines firing order, so any correct priority queue
produces the same simulation.  These tests drive both queues through the
same program — including cancellations, nested scheduling, and delays
spanning granule/window/far-heap boundaries — and require identical traces.
"""

from hypothesis import given, settings, strategies as st

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
        assert not far.pending
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

