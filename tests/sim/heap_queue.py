"""The reference event queue: one binary heap, for differential tests.

The simulator runs on a timer wheel (:mod:`repro.sim.engine`).  Its
``(time, born, seq)`` keys are unique, so any correct priority queue fires
the same sequence, and this plain heap is the oracle the wheel is held to.

``Simulator`` pushes and pops queue entries itself, so the oracle has the
wheel's shape with no buckets: its window already points past every
granule, so every entry the simulator files lands in the one
current-granule heap, and ``_advance`` never finds a next granule.  What
the comparison checks is the wheel's bucketing, window slide, overflow
heap and compaction against a queue that has none of them.

:func:`heap_engine` makes every ``Simulator`` built inside it use the heap
by swapping the queue class ``Simulator.__init__`` instantiates — the same
kind of test seam as patching ``GuestKernel._macro_horizon``.
"""

from __future__ import annotations

import heapq
import math
from contextlib import contextmanager
from typing import Iterator
from unittest import mock

from repro.sim import engine
from repro.sim.engine import Event, Simulator


class HeapQueue:
    """A single binary heap of ``(time, born, seq, event)`` entries, with
    the wheel's tombstone discipline (lazy cancel, compaction)."""

    __slots__ = ("_cur", "_cur_heap", "live", "_tombstones")

    def __init__(self) -> None:
        #: Past every granule: the simulator files each entry in the heap.
        self._cur = math.inf
        self._cur_heap: list[tuple[int, int, int, Event]] = []
        self.live = 0
        self._tombstones = 0

    def compact(self) -> None:
        self._cur_heap = [entry for entry in self._cur_heap if not entry[3].cancelled]
        heapq.heapify(self._cur_heap)
        self._tombstones = 0

    def _advance(self) -> bool:
        """There is no next granule: an empty heap is a drained queue."""
        return False

    def iter_live(self):
        """Yield live events in arbitrary order, without mutating the queue.

        For the machine-state observer: this never discards tombstones,
        so calling it leaves the queue byte-identical.
        """
        for entry in self._cur_heap:
            if not entry[3].cancelled:
                yield entry[3]


@contextmanager
def heap_engine() -> Iterator[list[HeapQueue]]:
    """Build every ``Simulator`` inside the block on a :class:`HeapQueue`.

    Yields the list of queues built so far, so a test can assert that the
    oracle really ran: if ``Simulator.__init__`` stops building its queue
    from ``engine._WheelQueue``, the list stays empty instead of the test
    quietly comparing the wheel with itself.
    """
    built: list[HeapQueue] = []

    def build() -> HeapQueue:
        queue = HeapQueue()
        built.append(queue)
        return queue

    with mock.patch.object(engine, "_WheelQueue", build):
        yield built


def simulator(queue: str) -> Simulator:
    """A fresh ``Simulator`` on the ``"wheel"`` or the ``"heap"`` queue."""
    if queue == "wheel":
        return Simulator()
    with heap_engine() as built:
        sim = Simulator()
    assert built == [sim._queue], "Simulator did not build the heap queue"
    return sim
