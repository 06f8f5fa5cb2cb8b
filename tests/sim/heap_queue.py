"""The reference event queue: one binary heap, for differential tests.

The simulator runs on a timer wheel (:mod:`repro.sim.engine`).  Its
``(time, born, seq)`` keys are unique, so any correct priority queue fires
the same sequence, and this plain heap is the oracle the wheel is held to.
:func:`heap_engine` makes every ``Simulator`` built inside it use the heap
by swapping the queue class ``Simulator.__init__`` instantiates — the same
kind of test seam as patching ``GuestKernel._macro_horizon``.
"""

from __future__ import annotations

import heapq
from contextlib import contextmanager
from typing import Iterator
from unittest import mock

from repro.sim import engine
from repro.sim.engine import _COMPACT_FLOOR, Event, Simulator


class HeapQueue:
    """A single binary heap of ``(time, born, seq, event)`` entries, with
    the wheel's tombstone discipline (lazy cancel, compaction)."""

    __slots__ = ("_heap", "live", "_tombstones")

    def __init__(self) -> None:
        self._heap: list[tuple[int, int, int, Event]] = []
        self.live = 0
        self._tombstones = 0

    def push(self, event: Event) -> None:
        heapq.heappush(self._heap, (event.time, event.born, event.seq, event))
        self.live += 1

    def note_cancel(self) -> None:
        self.live -= 1
        self._tombstones += 1
        if self._tombstones > _COMPACT_FLOOR and self._tombstones > self.live:
            self.compact()

    def compact(self) -> None:
        self._heap = [entry for entry in self._heap if not entry[3].cancelled]
        heapq.heapify(self._heap)
        self._tombstones = 0

    def peek(self) -> Event | None:
        heap = self._heap
        while heap:
            event = heap[0][3]
            if event.cancelled:
                heapq.heappop(heap)
                self._tombstones -= 1
                continue
            return event
        return None

    def pop_next(self, until: int | None) -> Event | None:
        heap = self._heap
        heappop = heapq.heappop
        while heap:
            entry = heap[0]
            event = entry[3]
            if event.cancelled:
                heappop(heap)
                self._tombstones -= 1
                continue
            if until is not None and entry[0] > until:
                return None
            heappop(heap)
            self.live -= 1
            return event
        return None

    def iter_live(self):
        """Yield live events in arbitrary order, without mutating the queue.

        Snapshot support: unlike :meth:`peek`/:meth:`pop_next` this never
        discards tombstones, so calling it leaves the queue byte-identical.
        """
        for entry in self._heap:
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
