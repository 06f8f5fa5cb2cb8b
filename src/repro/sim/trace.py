"""Structured event tracing.

A :class:`Tracer` collects typed, timestamped records from any layer of the
stack (hypervisor context switches, guest migrations, daemon decisions) so
experiments can reconstruct exactly *why* a run behaved the way it did —
the simulation equivalent of ``xentrace`` + ``ftrace``.

Tracing is opt-in and cheap when off: emitters call
:meth:`Tracer.enabled_for` (a set lookup) before building a record.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterable, Iterator, NamedTuple


class TraceRecord(NamedTuple):
    """One trace event.

    A NamedTuple rather than a dataclass: captures construct one per
    traced event from the middle of the simulation hot path, and tuple
    construction is several times cheaper than dataclass ``__init__``.
    The ``details`` default is a shared empty dict — records are
    immutable by convention; never mutate ``details`` in place.
    """

    time_ns: int
    category: str
    event: str
    subject: str
    details: dict = {}

    def __str__(self) -> str:
        extras = " ".join(f"{k}={v}" for k, v in self.details.items())
        return f"[{self.time_ns / 1e6:12.3f}ms] {self.category}/{self.event} {self.subject} {extras}".rstrip()


class Tracer:
    """A category-filtered, bounded trace buffer."""

    #: Categories the stack emits.  "dispatch" (one record per simulator
    #: event dispatch) is the firehose — enabled only on request.
    KNOWN_CATEGORIES = frozenset(
        {"sched", "irq", "guest", "vscale", "workload", "fault", "dispatch"}
    )

    def __init__(
        self,
        categories: Iterable[str] = (),
        capacity: int = 100_000,
        ring: bool = False,
    ):
        if capacity < 1:
            raise ValueError("trace capacity must be positive")
        unknown = set(categories) - self.KNOWN_CATEGORIES
        if unknown:
            raise ValueError(f"unknown trace categories: {sorted(unknown)}")
        self._enabled = set(categories)
        self.capacity = capacity
        #: Ring tracers keep the *newest* records at capacity (displacing the
        #: oldest) instead of dropping new ones — right for post-mortem tails.
        self.ring = ring
        self.records: "deque[TraceRecord] | list[TraceRecord]" = (
            deque(maxlen=capacity) if ring else []
        )
        self.dropped = 0
        # Streaming mode (see attach_stream): when set, ``self.records``
        # *is* the writer's pending batch and emit triggers ``_stream_drain``
        # once it holds a batch.
        self._stream_drain: Callable[[], None] | None = None
        self._stream_batch = 0

    # ------------------------------------------------------------------
    def enable(self, category: str) -> None:
        if category not in self.KNOWN_CATEGORIES:
            raise ValueError(f"unknown trace category {category!r}")
        self._enabled.add(category)

    def disable(self, category: str) -> None:
        self._enabled.discard(category)

    def enabled_for(self, category: str) -> bool:
        return category in self._enabled

    def attach_stream(
        self,
        pending: list,
        drain: Callable[[], None],
        batch: int,
    ) -> None:
        """Adopt ``pending`` as this tracer's record buffer.

        Streaming mode for a disk writer: emit's ordinary append feeds
        the writer's batch directly, so each traced event pays one list
        append plus a length check.
        Once ``pending`` holds ``batch`` records, ``drain`` is invoked
        to encode and clear them in place — meaning ``self.records``
        only ever holds the *undrained tail*; the full sequence lives
        wherever ``drain`` puts it.
        """
        if batch < 1:
            raise ValueError("stream batch must be positive")
        pending.extend(self.records)
        self.records = pending
        self.ring = False
        # The capacity check runs before drain gets a chance, so it must
        # sit safely above the batch threshold or records would be
        # silently dropped instead of drained.
        self.capacity = max(self.capacity, 4 * batch)
        self._stream_drain = drain
        self._stream_batch = batch

    # ------------------------------------------------------------------
    def emit(
        self,
        time_ns: int,
        category: str,
        event: str,
        subject: str,
        **details,
    ) -> None:
        """Record an event (no-op when the category is disabled)."""
        if category not in self._enabled:
            return
        # Hot path: raw tuple.__new__ skips the generated NamedTuple
        # __new__ (argument re-binding and defaults) — the 5-tuple here
        # matches the field order by construction.
        record = tuple.__new__(
            TraceRecord, (time_ns, category, event, subject, details)
        )
        records = self.records
        if len(records) >= self.capacity:
            self.dropped += 1
            if not self.ring:
                return
        records.append(record)
        if self._stream_drain is not None and len(records) >= self._stream_batch:
            self._stream_drain()

    # ------------------------------------------------------------------
    def select(
        self,
        category: str | None = None,
        event: str | None = None,
        subject: str | None = None,
        since_ns: int = 0,
    ) -> Iterator[TraceRecord]:
        """Filtered iteration over the recorded events."""
        for record in self.records:
            if record.time_ns < since_ns:
                continue
            if category is not None and record.category != category:
                continue
            if event is not None and record.event != event:
                continue
            if subject is not None and record.subject != subject:
                continue
            yield record

    def count(self, **kwargs) -> int:
        return sum(1 for _ in self.select(**kwargs))

    def clear(self) -> None:
        self.records.clear()
        self.dropped = 0


#: A tracer with everything off — the default wired into Machine, so
#: emit sites can call unconditionally.
NULL_TRACER = Tracer()
