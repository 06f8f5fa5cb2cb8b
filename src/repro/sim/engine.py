"""The discrete-event simulation engine.

Design notes
------------
* Time is an integer nanosecond counter (see :mod:`repro.units`).  Events
  scheduled for the same instant fire in insertion order, which makes the
  whole stack deterministic for a fixed seed.  Precisely, the queue orders
  entries by ``(time, born, seq)``: ``born`` is the clock when the event
  was scheduled and ``seq`` a creation counter.  For ordinary events that
  is insertion order, because ``seq`` grows with ``born``.  A client that
  elides a periodic chain of its own events may schedule one of them with
  the key the chain would have given it (``Simulator.order_key``), so the
  event sorts where the per-event chain would have put it.
* Events are cancellable.  Cancellation is lazy: the queue entry stays where
  it is but is skipped when popped.  This is the standard "tombstone" scheme
  and keeps ``cancel`` O(1).  When tombstones come to dominate the queue the
  engine compacts them away in one O(n) pass, so a long-running simulation
  that arms-and-cancels timers (the guest tick chains do this constantly)
  never accumulates unbounded garbage.
* The queue is a hierarchical timer wheel: a small sorted heap for the
  current ~1 ms granule, 256 unsorted buckets covering the next ~268 ms,
  and an overflow heap for far-future timers.  Most of the simulation's
  churn (ticks, quanta, IPIs) lands in the near window where insertion is
  an O(1) list append instead of an O(log n) heap sift, and heap entries
  are plain ``(time, born, seq, event)`` tuples so comparisons run in C.
  Live keys are unique, so ``(time, born, seq)`` is a total order and any
  correct priority queue fires the same sequence; the tests hold the wheel
  to a plain binary heap (``tests/sim/heap_queue.py``).
* The per-event path runs no engine frame of its own.  ``schedule`` and
  ``schedule_at`` build each :class:`Event` with ``object.__new__`` and
  slot stores (``Event(...)``, with its Python ``__init__`` frame, takes
  about 1.8 times as long) and file its entry in the wheel inline; ``run`` pops the current-granule
  heap inline and calls :meth:`_WheelQueue._advance` only when that heap
  is empty; ``Event.cancel`` updates the queue's counters itself.  The
  four stay separate functions that never call one another: tooling
  wraps each on its class and counts the calls.
* ``run`` re-reads ``_cur_heap`` after every dispatch: a callback that
  cancels can trigger :meth:`_WheelQueue.compact`, which rebinds it.
* ``pending_count`` is O(1): the queue keeps a live-event counter.
* There is intentionally no coroutine/process layer here.  The hypervisor and
  guest schedulers are state machines with explicit preemption bookkeeping;
  callbacks map onto that far more directly than generator processes would.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable

#: log2 of the wheel granule: 2**20 ns ~= 1.05 ms, matching the guest tick.
_GRANULE_BITS = 20
#: Number of near-future buckets; window = 256 granules ~= 268 ms.
_WHEEL_SLOTS = 256
_WHEEL_MASK = _WHEEL_SLOTS - 1
#: Compaction triggers when tombstones exceed this floor *and* outnumber
#: live entries; the floor keeps tiny queues from compacting constantly.
_COMPACT_FLOOR = 128

_heappush = heapq.heappush
_heappop = heapq.heappop
_new_object = object.__new__


class SimulationError(RuntimeError):
    """Raised for illegal uses of the engine (e.g. scheduling in the past)."""


class Event:
    """A handle for a scheduled callback.

    Application code treats this as opaque apart from :meth:`cancel` and the
    :attr:`time` attribute.  The simulator builds its events without
    calling ``__init__``; the two must set the same slots.
    """

    __slots__ = ("time", "born", "seq", "fn", "args", "cancelled", "_owner")

    def __init__(
        self,
        time: int,
        seq: int,
        fn: Callable[..., None],
        args: tuple,
        owner: "_WheelQueue | None" = None,
        born: int = 0,
    ):
        self.time = time
        self.born = born
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self._owner = owner

    def cancel(self) -> None:
        """Cancel the event; a no-op if it already fired or was cancelled."""
        if self.cancelled:
            return
        self.cancelled = True
        # Drop references eagerly so cancelled events pinned in the queue do
        # not keep large object graphs (guest kernels, threads) alive.
        self.fn = _cancelled_fn
        self.args = ()
        owner = self._owner
        if owner is not None:
            live = owner.live - 1
            owner.live = live
            tombstones = owner._tombstones + 1
            owner._tombstones = tombstones
            if tombstones > _COMPACT_FLOOR and tombstones > live:
                owner.compact()

    def __lt__(self, other: "Event") -> bool:
        # A re-armed keyed event can tie its own tombstone's key, and then
        # the entry tuples' comparison falls through to the events.
        return (self.time, self.born, self.seq) < (other.time, other.born, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<Event t={self.time} born={self.born} seq={self.seq} {state}>"


def _cancelled_fn(*_args: Any) -> None:  # pragma: no cover - never called
    raise AssertionError("cancelled event fired")


class _WheelQueue:
    """Timer-wheel storage: near-future buckets in front of an overflow heap.

    The simulator pushes and pops entries itself (see the module notes);
    this class owns the storage, the window slide and compaction.

    Invariants:

    * ``_cur`` is the granule the window currently points at; it only moves
      forward, and only ever to the next *occupied* granule, so each wheel
      slot holds entries for exactly one granule at a time.
    * ``_cur_heap`` holds every entry with granule <= ``_cur`` (sorted);
      slot ``g & MASK`` holds granule ``g`` for g in (cur, cur + SLOTS];
      ``_far`` holds everything beyond the window at insertion time.
    * ``_wheel_count`` counts entries (live or tombstoned) parked in wheel
      buckets, so an empty wheel short-circuits the slot scan.
    """

    __slots__ = (
        "_cur",
        "_cur_heap",
        "_wheel",
        "_wheel_count",
        "_far",
        "live",
        "_tombstones",
    )

    def __init__(self) -> None:
        self._cur = 0
        self._cur_heap: list[tuple[int, int, int, Event]] = []
        self._wheel: list[list[tuple[int, int, int, Event]]] = [
            [] for _ in range(_WHEEL_SLOTS)
        ]
        self._wheel_count = 0
        self._far: list[tuple[int, int, int, Event]] = []
        self.live = 0
        self._tombstones = 0

    def compact(self) -> None:
        self._cur_heap = [e for e in self._cur_heap if not e[3].cancelled]
        heapq.heapify(self._cur_heap)
        self._far = [e for e in self._far if not e[3].cancelled]
        heapq.heapify(self._far)
        count = 0
        for bucket in self._wheel:
            if bucket:
                bucket[:] = [e for e in bucket if not e[3].cancelled]
                count += len(bucket)
        self._wheel_count = count
        self._tombstones = 0

    def iter_live(self):
        """Yield live events in arbitrary order, without mutating the queue.

        For the machine-state observer: iterates the current-granule
        heap, every wheel bucket, and the overflow heap as plain lists —
        no pops, so the queue (including tombstone placement) is left
        byte-identical.
        """
        for entry in self._cur_heap:
            if not entry[3].cancelled:
                yield entry[3]
        for bucket in self._wheel:
            for entry in bucket:
                if not entry[3].cancelled:
                    yield entry[3]
        for entry in self._far:
            if not entry[3].cancelled:
                yield entry[3]

    def _advance(self) -> bool:
        """Slide the window to the next occupied granule.

        Called with an empty current-granule heap; drains that granule's
        wheel bucket (and any overflow entries that now fall on it) into the
        current heap.  Returns False when the whole queue has drained.
        """
        wheel_granule = None
        if self._wheel_count:
            cur = self._cur
            wheel = self._wheel
            for dist in range(1, _WHEEL_SLOTS + 1):
                if wheel[(cur + dist) & _WHEEL_MASK]:
                    wheel_granule = cur + dist
                    break
        far = self._far
        while far and far[0][3].cancelled:
            _heappop(far)
            self._tombstones -= 1
        far_granule = (far[0][0] >> _GRANULE_BITS) if far else None
        if wheel_granule is None:
            if far_granule is None:
                return False
            granule = far_granule
        elif far_granule is None or wheel_granule <= far_granule:
            granule = wheel_granule
        else:
            granule = far_granule
        self._cur = granule
        heap = self._cur_heap
        bucket = self._wheel[granule & _WHEEL_MASK]
        if bucket:
            self._wheel_count -= len(bucket)
            for entry in bucket:
                if entry[3].cancelled:
                    self._tombstones -= 1
                else:
                    heap.append(entry)
            bucket.clear()
        # Overflow entries whose granule has come into view fire now too;
        # ones further out stay put and are compared by granule next time.
        while far and (far[0][0] >> _GRANULE_BITS) == granule:
            entry = _heappop(far)
            if entry[3].cancelled:
                self._tombstones -= 1
            else:
                heap.append(entry)
        heapq.heapify(heap)
        return True


class Simulator:
    """A single-clock discrete-event simulator.

    Example
    -------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(100, fired.append, "a")
    >>> _ = sim.schedule(50, fired.append, "b")
    >>> sim.run()
    >>> fired
    ['b', 'a']
    >>> sim.now
    100
    """

    def __init__(self) -> None:
        self.now: int = 0
        self._queue = _WheelQueue()
        self._seq: int = 0
        #: The event being dispatched; None when every event up to ``now``
        #: has fired.  Clients that elide their own events compare keys
        #: against it to tell whether an elided event would already have
        #: fired at this instant.
        self.current: Event | None = None
        #: ``(born, seq)`` for the next ``schedule_at`` call, which consumes
        #: it.  Lets a client give an event the key an elided per-event
        #: chain would have given it (see ``GuestKernel._tick_key``).
        self.order_key: tuple[int, int] | None = None
        self._running = False
        #: Optional hook invoked as ``dispatch_check(sim, event)`` right
        #: before each event fires (installed by repro.sanitize).
        self.dispatch_check: Callable[["Simulator", Event], None] | None = None
        #: Optional hook invoked as ``dispatch_trace(sim, event)`` right
        #: before each event fires (installed by repro.tracelog when the
        #: "dispatch" category is requested).  Separate from
        #: ``dispatch_check`` so tracing and sanitizing compose.
        self.dispatch_trace: Callable[["Simulator", Event], None] | None = None

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    # ``schedule`` and ``schedule_at`` each build the event and file its
    # entry inline, the same way: this is the hottest code in the
    # simulator (one call per quantum, IPI, tick, ...), and neither may
    # call the other (see the module notes).
    def schedule(self, delay: int, fn: Callable[..., None], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` nanoseconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay}ns in the past")
        now = self.now
        time = int(now + delay)
        seq = self._seq
        self._seq = seq + 1
        queue = self._queue
        event = _new_object(Event)
        event.time = time
        event.born = now
        event.seq = seq
        event.fn = fn
        event.args = args
        event.cancelled = False
        event._owner = queue
        queue.live += 1
        granule = time >> _GRANULE_BITS
        offset = granule - queue._cur
        if offset <= 0:
            _heappush(queue._cur_heap, (time, now, seq, event))
        elif offset <= _WHEEL_SLOTS:
            queue._wheel[granule & _WHEEL_MASK].append((time, now, seq, event))
            queue._wheel_count += 1
        else:
            _heappush(queue._far, (time, now, seq, event))
        return event

    def schedule_at(self, time: int, fn: Callable[..., None], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at an absolute simulation time.

        Consumes a pending :attr:`order_key`, if one is set, as the event's
        ``(born, seq)``; otherwise the event is born now with a fresh seq.
        The key is consumed even when the call raises, so it never leaks
        into a later, unrelated event.
        """
        key = self.order_key
        if key is not None:
            self.order_key = None
        now = self.now
        if time < now:
            raise SimulationError(f"cannot schedule at t={time} before now={now}")
        time = int(time)
        if key is None:
            born = now
            seq = self._seq
            self._seq = seq + 1
        else:
            born, seq = key
        queue = self._queue
        event = _new_object(Event)
        event.time = time
        event.born = born
        event.seq = seq
        event.fn = fn
        event.args = args
        event.cancelled = False
        event._owner = queue
        queue.live += 1
        granule = time >> _GRANULE_BITS
        offset = granule - queue._cur
        if offset <= 0:
            _heappush(queue._cur_heap, (time, born, seq, event))
        elif offset <= _WHEEL_SLOTS:
            queue._wheel[granule & _WHEEL_MASK].append((time, born, seq, event))
            queue._wheel_count += 1
        else:
            _heappush(queue._far, (time, born, seq, event))
        return event

    def next_seq(self) -> int:
        """Draw a sequence number without scheduling anything.

        The draw takes the place a scheduled event would have taken in
        creation order, so a rank drawn here sorts like an event
        scheduled now.
        """
        seq = self._seq
        self._seq += 1
        return seq

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: int | None = None) -> None:
        """Run until the queue drains or the clock would pass ``until``.

        When ``until`` is given, the clock is left exactly at ``until`` even
        if no event fires there, so repeated ``run(until=...)`` calls observe
        a monotonically advancing clock.
        """
        if self._running:
            raise SimulationError("run() re-entered from within an event")
        self._running = True
        try:
            queue = self._queue
            advance = queue._advance
            heappop = _heappop
            check = self.dispatch_check
            trace = self.dispatch_trace
            while True:
                # Re-read every time round: a callback's cancel may have
                # compacted the queue, which rebinds the current heap.
                heap = queue._cur_heap
                if not heap:
                    if advance():
                        continue
                    break
                entry = heap[0]
                event = entry[3]
                if event.cancelled:
                    heappop(heap)
                    queue._tombstones -= 1
                    continue
                if until is not None and entry[0] > until:
                    break
                heappop(heap)
                queue.live -= 1
                if check is not None:
                    check(self, event)
                if trace is not None:
                    trace(self, event)
                self.now = event.time
                self.current = event
                event.cancelled = True  # mark as fired
                event.fn(*event.args)
        finally:
            self._running = False
        self.current = None
        if until is not None and self.now < until:
            self.now = until

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def pending_count(self) -> int:
        """Number of live (non-cancelled) events still queued."""
        return self._queue.live

    def snapshot_events(self) -> list[tuple[int, int, str]]:
        """The live event queue as sorted ``(time, seq, callback)`` rows.

        Callbacks are identified by qualified name — enough for the
        machine-state observer to fingerprint the queue (two runs whose
        queues hold the same callbacks at the same ``(time, seq)``
        positions are in the same scheduling state).  Read-only: the
        queue is untouched.
        """
        rows = []
        for event in self._queue.iter_live():
            fn = event.fn
            module = getattr(fn, "__module__", "") or ""
            qualname = getattr(fn, "__qualname__", None) or type(fn).__name__
            rows.append((event.time, event.seq, f"{module}.{qualname}"))
        rows.sort()
        return rows
