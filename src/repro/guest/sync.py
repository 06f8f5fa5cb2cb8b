"""Guest synchronization primitives, composed from the action DSL.

Each primitive exposes generator methods that workload behaviours embed via
``yield from``.  They model both families from the paper:

* **busy-waiting** — :class:`KernelSpinLock` (plain or paravirtual) and the
  user-level spinning in :class:`OpenMPBarrier` / ad-hoc
  :class:`repro.guest.actions.UserSpinLock` usage;
* **blocking** — :class:`Futex`, :class:`GuestMutex`, :class:`CondVar` and
  :class:`Semaphore`, whose cross-vCPU wake-ups ride reschedule IPIs and
  therefore suffer the hypervisor's queueing delays (Figure 1(b)).

Costs are charged as explicit ``Compute`` actions so they appear in CPU
accounting exactly where a real kernel would spend them.
"""

from __future__ import annotations

from typing import Generator, TYPE_CHECKING

from repro.guest.actions import (
    Action,
    BlockOn,
    Compute,
    HypercallYield,
    SpinFlag,
    SpinWait,
    UserSpinLock,
    WaitQueue,
    YieldCPU,
)
from repro.metrics.collectors import Counter

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.guest.kernel import GuestKernel
    from repro.guest.threads import Thread

SyncGen = Generator[Action, object, None]

#: Cost of an uncontended atomic (CAS) operation.
ATOMIC_NS = 80
#: User->kernel transition plus futex hash-bucket work for FUTEX_WAIT.
FUTEX_WAIT_NS = 600
#: FUTEX_WAKE syscall cost on the waker side.
FUTEX_WAKE_NS = 500
#: Fast-path mutex acquire/release cost.
MUTEX_FAST_NS = 100
#: Hold time of the futex hash-bucket spinlock inside wait/wake paths.
FUTEX_BUCKET_NS = 1500
#: An effectively unbounded spin budget ("spin forever").
SPIN_FOREVER_NS = 10**12


def _bucket_section(kernel_lock: "KernelSpinLock | None", thread: "Thread") -> SyncGen:
    """The kernel-level critical section inside futex_wait/futex_wake.

    Real futex operations take a hash-bucket spin lock; under CPU
    oversubscription that lock is exactly where kernel-level lock-holder
    preemption bites, and where pv-spinlocks help.  Primitives constructed
    with a shared ``kernel_lock`` exercise that path.
    """
    if kernel_lock is not None:
        yield from kernel_lock.critical_section(thread, FUTEX_BUCKET_NS)


class Futex:
    """The kernel's sleep/wake-up engine (a named wait queue).

    ``wait`` parks the calling thread; ``wake`` releases up to ``n`` waiters,
    sending reschedule IPIs to remote vCPUs as a side effect of
    :meth:`repro.guest.kernel.GuestKernel.wake_thread`.
    """

    def __init__(self, kernel: "GuestKernel", name: str = "futex"):
        self.kernel = kernel
        self.queue = WaitQueue(name)
        self.queue.kernel = kernel
        self.waits = Counter()
        self.wakes = Counter()

    def wait(self) -> SyncGen:
        self.waits.inc()
        yield Compute(FUTEX_WAIT_NS)
        yield BlockOn(self.queue)

    def wake(self, n: int = 1) -> SyncGen:
        yield Compute(FUTEX_WAKE_NS)
        for _ in range(n):
            if self.queue.fire_one() is None:
                break
            self.wakes.inc()

    def wake_all(self) -> SyncGen:
        yield Compute(FUTEX_WAKE_NS)
        self.wakes.inc(self.queue.fire_all())


class GuestMutex:
    """A pthread mutex: fast-path CAS, futex slow path, barging wake-ups.

    Like glibc's mutex, unlock clears ownership and wakes one waiter who
    must then *re-compete* — a running thread may barge in ahead of it.
    Direct handoff would be simpler, but under preemption it creates lock
    convoys: every transfer then costs a full wake-to-run latency, and a
    contended mutex collapses to one critical section per scheduling
    round.  Barging keeps the lock busy whenever anyone runnable wants it.
    """

    def __init__(
        self,
        kernel: "GuestKernel",
        name: str = "mutex",
        kernel_lock: "KernelSpinLock | None" = None,
    ):
        self.kernel = kernel
        self.name = name
        self.owner: "Thread | None" = None
        self.queue = WaitQueue(f"{name}.waiters")
        self.queue.kernel = kernel
        self.kernel_lock = kernel_lock
        self.contended = Counter()
        self.acquisitions = Counter()

    def lock(self, thread: "Thread") -> SyncGen:
        yield Compute(MUTEX_FAST_NS)
        self.acquisitions.inc()
        if self.owner is None:
            self.owner = thread
            return
        self.contended.inc()
        while True:
            yield Compute(FUTEX_WAIT_NS)
            yield from _bucket_section(self.kernel_lock, thread)
            if self.owner is None:
                # Released while we were entering the kernel: grab it.
                self.owner = thread
                return
            yield BlockOn(self.queue)
            # Woken: re-compete (a running thread may have barged in).
            if self.owner is None:
                self.owner = thread
                return

    def unlock(self, thread: "Thread") -> SyncGen:
        if self.owner is not thread:
            raise RuntimeError(f"mutex {self.name}: unlock by non-owner {thread.name}")
        yield Compute(MUTEX_FAST_NS)
        self.owner = None
        if self.queue.blocked:
            yield Compute(FUTEX_WAKE_NS)
            yield from _bucket_section(self.kernel_lock, thread)
            if self.owner is None:  # nobody barged during the wake path
                self.queue.fire_one()


class CondVar:
    """A pthread condition variable over a :class:`GuestMutex`."""

    def __init__(self, kernel: "GuestKernel", name: str = "cond"):
        self.kernel = kernel
        self.queue = WaitQueue(f"{name}.waiters")
        self.queue.kernel = kernel
        self.signals = Counter()

    def wait(self, mutex: GuestMutex, thread: "Thread") -> SyncGen:
        yield from mutex.unlock(thread)
        yield Compute(FUTEX_WAIT_NS)
        yield BlockOn(self.queue)
        yield from mutex.lock(thread)

    def signal(self) -> SyncGen:
        self.signals.inc()
        yield Compute(FUTEX_WAKE_NS)
        self.queue.fire_one()

    def broadcast(self) -> SyncGen:
        self.signals.inc()
        yield Compute(FUTEX_WAKE_NS)
        self.queue.fire_all()


class Semaphore:
    """A counting semaphore (e.g. ``mm_struct``'s mmap_sem in dedup)."""

    def __init__(
        self,
        kernel: "GuestKernel",
        count: int = 1,
        name: str = "sem",
        kernel_lock: "KernelSpinLock | None" = None,
    ):
        if count < 0:
            raise ValueError("initial semaphore count cannot be negative")
        self.kernel = kernel
        self.count = count
        self.queue = WaitQueue(f"{name}.waiters")
        self.queue.kernel = kernel
        self.kernel_lock = kernel_lock
        self.contended = Counter()

    def down(self, thread: "Thread") -> SyncGen:
        yield Compute(ATOMIC_NS)
        if self.count > 0:
            self.count -= 1
            return
        self.contended.inc()
        yield Compute(FUTEX_WAIT_NS)
        yield from _bucket_section(self.kernel_lock, thread)
        if self.count > 0:
            self.count -= 1
            return
        yield BlockOn(self.queue)
        # Direct handoff: up() does not increment when it wakes a waiter.

    def up(self, thread: "Thread") -> SyncGen:
        yield Compute(ATOMIC_NS)
        if self.queue.blocked:
            yield Compute(FUTEX_WAKE_NS)
            yield from _bucket_section(self.kernel_lock, thread)
            self.queue.fire_one()
        else:
            self.count += 1


class OpenMPBarrier:
    """GCC-OpenMP's spin-then-futex barrier.

    ``spin_budget_ns`` encodes GOMP_SPINCOUNT: 0 means PASSIVE (block
    immediately), a huge value means ACTIVE (spin forever), anything in
    between is the hybrid default.  The last arriver releases both the
    spinners (they observe the generation flag flip within nanoseconds if
    on-CPU) and the blocked waiters (via a futex-wake, i.e. IPIs).
    """

    def __init__(
        self,
        kernel: "GuestKernel",
        parties: int,
        spin_budget_ns: int,
        name: str = "barrier",
        kernel_lock: "KernelSpinLock | None" = None,
    ):
        if parties < 1:
            raise ValueError("barrier needs at least one party")
        self.kernel = kernel
        self.parties = parties
        self.spin_budget_ns = spin_budget_ns
        self.name = name
        self.kernel_lock = kernel_lock
        self.arrived = 0
        self.generation = 0
        self._flag = SpinFlag(f"{name}.gen0")
        self._flag.kernel = kernel
        self.releases = Counter()
        self.futex_fallbacks = Counter()

    def wait(self, thread: "Thread") -> SyncGen:
        yield Compute(ATOMIC_NS)
        self.arrived += 1
        if self.arrived == self.parties:
            self.arrived = 0
            self.generation += 1
            flag = self._flag
            self._flag = SpinFlag(f"{self.name}.gen{self.generation}")
            self._flag.kernel = self.kernel
            self.releases.inc()
            if flag.blocked:
                yield Compute(FUTEX_WAKE_NS)
                yield from _bucket_section(self.kernel_lock, thread)
            flag.fire_all()
            return
        flag = self._flag
        if self.spin_budget_ns > 0:
            fired = yield SpinWait(flag, self.spin_budget_ns)
            if fired:
                return
        self.futex_fallbacks.inc()
        yield Compute(FUTEX_WAIT_NS)
        yield from _bucket_section(self.kernel_lock, thread)
        yield BlockOn(flag)  # latched flags fall straight through


class KernelSpinLock:
    """A kernel spin lock, optionally paravirtualized.

    * Plain mode spins unboundedly — a waiter whose holder got preempted
      burns its entire timeslice (the LHP pathology).
    * PV mode (``pv_spinlock`` in :class:`repro.guest.kernel.GuestConfig`)
      spins for a bounded budget and then yields the vCPU back to the
      hypervisor (SCHEDOP_yield), repeating until the lock is obtained.
    """

    def __init__(self, kernel: "GuestKernel", name: str = "klock"):
        self.kernel = kernel
        self.lock = UserSpinLock(name)
        self.lock.kernel = kernel
        self.acquisitions = Counter()
        self.contentions = Counter()
        self.pv_yields = Counter()

    def acquire(self, thread: "Thread") -> SyncGen:
        yield Compute(ATOMIC_NS)
        self.acquisitions.inc()
        if self.lock.try_acquire(thread):
            thread.nonpreemptible += 1  # preempt_disable() inside the CS
            return
        self.contentions.inc()
        if not self.kernel.config.pv_spinlock:
            fired = yield SpinWait(self.lock, SPIN_FOREVER_NS)
            if not fired:
                raise RuntimeError(f"{self.lock.name}: unbounded spin timed out")
            thread.nonpreemptible += 1
            return
        while True:
            fired = yield SpinWait(self.lock, self.kernel.config.pv_spin_budget_ns)
            if fired:
                thread.nonpreemptible += 1
                return
            self.pv_yields.inc()
            # Give a co-located thread (possibly the preempted holder) a
            # turn first, then the vCPU itself back to the hypervisor.
            # Without the thread-level yield, a waiter packed on the same
            # vCPU as the holder would spin-and-yield forever.
            yield YieldCPU()
            yield HypercallYield()

    def release(self, thread: "Thread") -> SyncGen:
        if self.lock.holder is not thread:
            raise RuntimeError(f"{self.lock.name}: release by non-holder {thread.name}")
        yield Compute(ATOMIC_NS)
        thread.nonpreemptible -= 1  # preempt_enable()
        self.lock.release()

    def critical_section(self, thread: "Thread", hold_ns: int) -> SyncGen:
        """Convenience: acquire, compute for ``hold_ns``, release."""
        yield from self.acquire(thread)
        yield Compute(hold_ns)
        yield from self.release(thread)
