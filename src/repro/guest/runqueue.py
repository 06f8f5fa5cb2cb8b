"""Per-vCPU runqueues for the guest's fair scheduler.

A deliberately small CFS: threads carry a virtual runtime, the queue picks
the smallest, real-time threads always win, and waking threads get their
vruntime clamped forward so sleepers cannot monopolize the CPU afterwards.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.guest.threads import Thread


class RunQueue:
    """The ready queue plus current thread of one vCPU."""

    __slots__ = (
        "index",
        "ready",
        "current",
        "min_vruntime",
        "picked_at",
        "pending_overhead_ns",
    )

    def __init__(self, index: int):
        self.index = index
        self.ready: list["Thread"] = []
        self.current: "Thread | None" = None
        #: Monotonic floor used to clamp waking threads' vruntime.
        self.min_vruntime = 0
        #: Sim time at which the current thread was picked (for quantum).
        self.picked_at = 0
        #: Overhead (context switch, migration work) to burn before the
        #: current thread's action proceeds.
        self.pending_overhead_ns = 0

    # ------------------------------------------------------------------
    def load(self) -> int:
        """Number of runnable threads (the guest's load-balancing metric)."""
        return len(self.ready) + (1 if self.current is not None else 0)

    def enqueue(self, thread: "Thread") -> None:
        if thread in self.ready or thread is self.current:
            raise RuntimeError(f"{thread.name} already on rq{self.index}")
        thread.vcpu_index = self.index
        self.ready.append(thread)

    def dequeue(self, thread: "Thread") -> None:
        self.ready.remove(thread)

    def pick_next(self) -> "Thread | None":
        """Highest-priority ready thread: RT first, then min vruntime.

        Ties break by queue order, which keeps the simulation deterministic.
        """
        ready = self.ready
        if len(ready) < 2:
            # The only candidate wins whatever its class or vruntime.
            return ready[0] if ready else None
        best: "Thread | None" = None
        best_rt: "Thread | None" = None
        for t in ready:
            if t.rt:
                if best_rt is None or t.vruntime < best_rt.vruntime or (
                    t.vruntime == best_rt.vruntime and t.tid < best_rt.tid
                ):
                    best_rt = t
            elif best_rt is None:
                if best is None or t.vruntime < best.vruntime or (
                    t.vruntime == best.vruntime and t.tid < best.tid
                ):
                    best = t
        return best_rt if best_rt is not None else best

    def advance_min_vruntime(self) -> None:
        """Raise the floor to the lowest runnable vruntime, if higher.

        Runs on every pause, block and exit, so it allocates nothing.
        Ready threads are scanned before the current one and ties keep the
        first seen: the floor is the object ``min(ready + [current])``
        returns.
        """
        current = self.current
        ready = self.ready
        if ready:
            lowest = ready[0].vruntime
            for t in ready:
                if t.vruntime < lowest:
                    lowest = t.vruntime
            if current is not None and current.vruntime < lowest:
                lowest = current.vruntime
        elif current is not None:
            lowest = current.vruntime
        else:
            return
        if lowest > self.min_vruntime:
            self.min_vruntime = lowest

    def steal_candidates(self) -> list["Thread"]:
        """Ready, migratable, non-RT threads a peer may pull."""
        return [t for t in self.ready if t.migratable and not t.rt]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        cur = self.current.name if self.current else "-"
        return f"<rq{self.index} cur={cur} ready={len(self.ready)}>"
