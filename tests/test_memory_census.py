"""Per-object memory footprint of the hot simulation classes.

Checks that the classes the simulator allocates per thread, runqueue,
IRQ and event stay slotted: heap bytes per instance (including
the sub-objects a constructor allocates), measured with ``tracemalloc``
over a population.
"""

from __future__ import annotations

import gc
import tracemalloc


def _bytes_per(make, count: int) -> float:
    gc.collect()
    tracemalloc.start()
    before, _ = tracemalloc.get_traced_memory()
    objects = [make(i) for i in range(count)]
    after, _ = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    del objects
    gc.collect()
    return (after - before) / count


def object_sizes(count: int) -> dict[str, float]:
    from repro.guest.runqueue import RunQueue
    from repro.guest.threads import Thread
    from repro.hypervisor.irq import IRQ, IRQClass
    from repro.sim.engine import Simulator

    def make_thread(i: int) -> Thread:
        return Thread(None, (x for x in ()), f"t{i}")

    sim = Simulator()

    def make_event(i: int):
        return sim.schedule(i + 1, _bytes_per)

    return {
        "thread_bytes": _bytes_per(make_thread, count),
        "runqueue_bytes": _bytes_per(lambda i: RunQueue(i), count),
        "irq_bytes": _bytes_per(lambda i: IRQ(IRQClass.RESCHED_IPI, i), count),
        "scheduled_event_bytes": _bytes_per(make_event, count),
    }


def test_memory_census_shows_slotted_objects_are_small():
    sizes = object_sizes(count=2_000)
    # Losing __slots__ adds a ~104-byte __dict__ per object; the ceilings
    # sit between the slotted size (thread includes its behavior generator
    # and name string) and the unslotted one, so they catch the regression
    # without being allocator-sensitive.
    assert sizes["thread_bytes"] < 700
    assert sizes["runqueue_bytes"] < 250
    assert sizes["irq_bytes"] < 220
    assert sizes["scheduled_event_bytes"] < 290
