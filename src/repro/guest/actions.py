"""The thread-behaviour action DSL and its waitable primitives.

Workload programs are Python generators that ``yield`` primitive actions;
the guest kernel interprets them on whatever vCPU the thread currently runs
on.  Only four primitives exist — everything richer (mutexes, barriers,
semaphores, OpenMP waiting policy) is composed from them in
:mod:`repro.guest.sync`:

``Compute(ns)``
    Burn CPU for ``ns`` nanoseconds of *on-CPU* time.  Preemption at either
    layer pauses the countdown.
``SpinWait(waitable, budget_ns)``
    Busy-wait on a waitable, consuming CPU, for at most ``budget_ns`` of
    on-CPU spinning.  The generator receives ``True`` if the waitable fired
    for this thread, ``False`` on budget exhaustion.
``BlockOn(waitable)``
    Sleep (off the runqueue) until the waitable fires for this thread.
``YieldCPU()``
    Put the thread at the back of its runqueue (sched_yield).
``Exit()``
    Terminate the thread.

Waitables
---------
``SpinFlag``
    A fire-all condition variable for busy-waiters (an OpenMP barrier's
    generation flag, ad-hoc "wait for stage" flags).
``UserSpinLock``
    A fire-one, user-space spin lock (lu's hand-rolled synchronization).
    Only a spinner whose vCPU is *currently executing* can grab a released
    lock — a preempted spinner cannot, which is precisely the lock-holder
    preemption pathology of Figure 1(a).
``WaitQueue``
    A fire-one/fire-all queue for blocked threads (the futex wait side).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.guest.threads import Thread


class Action:
    """Base class for primitive actions (marker only)."""

    __slots__ = ()


class Compute(Action):
    """Consume ``ns`` nanoseconds of CPU."""

    __slots__ = ("remaining_ns",)

    def __init__(self, ns: int):
        if ns < 0:
            raise ValueError("compute duration cannot be negative")
        self.remaining_ns = int(ns)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Compute({self.remaining_ns}ns left)"


class SpinWait(Action):
    """Busy-wait on ``waitable`` for at most ``budget_ns`` of on-CPU time."""

    __slots__ = ("waitable", "budget_ns", "fired")

    def __init__(self, waitable: "Waitable", budget_ns: int):
        if budget_ns < 0:
            raise ValueError("spin budget cannot be negative")
        self.waitable = waitable
        self.budget_ns = int(budget_ns)
        self.fired = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SpinWait({self.waitable!r}, budget={self.budget_ns}ns)"


class BlockOn(Action):
    """Sleep until the waitable fires for this thread."""

    __slots__ = ("waitable",)

    def __init__(self, waitable: "Waitable"):
        self.waitable = waitable


class YieldCPU(Action):
    """Voluntarily yield to the next ready thread (sched_yield)."""

    __slots__ = ()


class HypercallYield(Action):
    """SCHEDOP_yield: give the whole vCPU back to the hypervisor.

    This is pv-spinlock's escape hatch — after a bounded spin, the waiter
    yields its vCPU so the (possibly preempted) lock holder can run.
    """

    __slots__ = ()


class Exit(Action):
    """Terminate the thread (equivalent to returning from the generator)."""

    __slots__ = ()


# ----------------------------------------------------------------------
# Waitables
# ----------------------------------------------------------------------
class Waitable:
    """Common spinner/blocked-waiter registry.

    The kernel registers threads here while they execute ``SpinWait`` or
    ``BlockOn`` actions; sync primitives call the ``fire_*`` methods.  The
    kernel installs itself as :attr:`kernel` on each guest's waitables lazily
    (a waitable belongs to exactly one guest).
    """

    __slots__ = ("name", "spinners", "blocked", "kernel", "latched")

    def __init__(self, name: str = "?"):
        self.name = name
        #: Threads currently spinning on this waitable, in arrival order.
        self.spinners: list["Thread"] = []
        #: Threads currently blocked on this waitable, in arrival order.
        self.blocked: list["Thread"] = []
        self.kernel = None  # set by the kernel on first use
        #: Once latched (SpinFlag.fire_all), late waiters complete at once;
        #: closes the timeout-then-block race in barrier implementations.
        self.latched = False

    # -- registration (kernel side) ------------------------------------
    def add_spinner(self, thread: "Thread") -> None:
        self.spinners.append(thread)

    def remove_spinner(self, thread: "Thread") -> None:
        if thread in self.spinners:
            self.spinners.remove(thread)

    def add_blocked(self, thread: "Thread") -> None:
        self.blocked.append(thread)

    # -- firing (sync-primitive side) -----------------------------------
    def fire_all(self) -> int:
        """Release every spinner and waiter.  Returns how many were released."""
        assert self.kernel is not None, "waitable never waited on"
        count = 0
        for thread in list(self.spinners):
            self.kernel.spin_satisfied(thread, self)
            count += 1
        for thread in list(self.blocked):
            self.blocked.remove(thread)
            self.kernel.wake_thread(thread)
            count += 1
        return count

    def fire_one(self) -> "Thread | None":
        """Release one waiter: prefer a spinner on an executing vCPU (it
        reacts immediately), then any spinner, then a blocked thread."""
        assert self.kernel is not None, "waitable never waited on"
        executing = [t for t in self.spinners if self.kernel.thread_is_executing(t)]
        pool = executing or self.spinners
        if pool:
            thread = pool[0]
            self.kernel.spin_satisfied(thread, self)
            return thread
        if self.blocked:
            thread = self.blocked.pop(0)
            self.kernel.wake_thread(thread)
            return thread
        return None

    @property
    def waiter_count(self) -> int:
        return len(self.spinners) + len(self.blocked)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name} spin={len(self.spinners)} blk={len(self.blocked)}>"


class SpinFlag(Waitable):
    """A one-shot condition: firing releases everyone, then stays latched.

    Barrier implementations allocate a fresh flag per generation; the latch
    means a waiter that arrives (or falls back from spinning to blocking)
    after the release still proceeds immediately.
    """

    def fire_all(self) -> int:
        self.latched = True
        return super().fire_all()


class WaitQueue(Waitable):
    """A futex-style wait queue (blocked waiters; spinners also allowed)."""


class UserSpinLock(Waitable):
    """A user-space spin lock with preemption-aware handoff.

    State machine:

    * ``lock()`` (in sync helpers) tries :meth:`try_acquire` first; on
      failure the thread spins via ``SpinWait(lock, budget)``.
    * ``release()`` hands the lock to a spinner whose vCPU is executing, if
      any (they observe the release within ``handoff_ns``); otherwise the
      lock is left free and the first spinner to run grabs it — matching
      real spin-lock behaviour when every waiter is preempted.
    """

    __slots__ = ("holder", "free")

    def __init__(self, name: str = "spinlock"):
        super().__init__(name)
        self.holder: "Thread | None" = None
        self.free = True

    def try_acquire(self, thread: "Thread") -> bool:
        if self.free:
            self.free = False
            self.holder = thread
            return True
        return False

    def release(self) -> None:
        self.holder = None
        self.free = True
        assert self.kernel is not None
        # Grant to a spinner that is executing right now, if there is one.
        for candidate in list(self.spinners):
            if self.kernel.thread_is_executing(candidate):
                self.free = False
                self.holder = candidate
                self.kernel.spin_satisfied(candidate, self)
                return
        # Otherwise the lock stays free; on_spinner_resumed() grants it when
        # a preempted spinner gets CPU again.

    def on_spinner_resumed(self, thread: "Thread") -> bool:
        """Called by the kernel when a spinner's vCPU starts executing."""
        if self.free:
            self.free = False
            self.holder = thread
            return True
        return False
