"""Tests for guest synchronization primitives: mutual exclusion, lost
wakeups, handoff, barriers, semaphores, and the pv-spinlock path."""

import pytest

from repro.guest.actions import Compute
from repro.guest.kernel import GuestConfig
from repro.guest.sync import (
    CondVar,
    GuestMutex,
    KernelSpinLock,
    OpenMPBarrier,
    Semaphore,
)
from repro.units import MS, SEC, US
from tests.conftest import StackBuilder


def drive(builder, until=5 * SEC):
    machine = builder.start()
    machine.run(until=until)
    return machine


class TestGuestMutex:
    def test_mutual_exclusion(self, single_guest):
        builder, kernel = single_guest
        mutex = GuestMutex(kernel)
        in_cs = [0]
        violations = [0]

        def worker(n):
            def gen(thread):
                for _ in range(n):
                    yield from mutex.lock(thread)
                    in_cs[0] += 1
                    if in_cs[0] > 1:
                        violations[0] += 1
                    yield Compute(100 * US)
                    in_cs[0] -= 1
                    yield from mutex.unlock(thread)
                    yield Compute(50 * US)

            return gen

        for index in range(4):
            placeholder = []

            def deferred(ph=placeholder):
                yield from ph[0]

            thread = kernel.spawn(deferred(), f"w{index}")
            placeholder.append(worker(20)(thread))
        drive(builder)
        assert violations[0] == 0
        assert mutex.acquisitions.value == 80

    def test_unlock_by_non_owner_raises(self, single_guest):
        builder, kernel = single_guest
        mutex = GuestMutex(kernel)
        failures = []

        def bad(thread):
            try:
                yield from mutex.unlock(thread)
            except RuntimeError:
                failures.append(True)

        placeholder = []

        def deferred():
            yield from placeholder[0]

        thread = kernel.spawn(deferred(), "bad")
        placeholder.append(bad(thread))
        drive(builder, until=100 * MS)
        assert failures == [True]

    def test_contended_waiters_all_eventually_acquire(self, single_guest):
        """Barging semantics: no ordering guarantee, but no waiter is lost."""
        builder, kernel = single_guest
        mutex = GuestMutex(kernel)
        order = []

        def worker(tag):
            def gen(thread):
                yield Compute((1 + tag) * 200 * US)  # stagger arrivals
                yield from mutex.lock(thread)
                order.append(tag)
                yield Compute(5 * MS)
                yield from mutex.unlock(thread)

            return gen

        for tag in range(3):
            placeholder = []

            def deferred(ph=placeholder):
                yield from ph[0]

            thread = kernel.spawn(deferred(), f"w{tag}", pinned_to=0)
            placeholder.append(worker(tag)(thread))
        drive(builder)
        assert sorted(order) == [0, 1, 2]
        assert mutex.owner is None


class TestCondVar:
    def test_signal_wakes_one_waiter(self, single_guest):
        builder, kernel = single_guest
        mutex = GuestMutex(kernel)
        cond = CondVar(kernel)
        ready = []

        def consumer(thread):
            yield from mutex.lock(thread)
            while not ready:
                yield from cond.wait(mutex, thread)
            ready.pop()
            yield from mutex.unlock(thread)

        def producer(thread):
            yield Compute(10 * MS)
            yield from mutex.lock(thread)
            ready.append(1)
            yield from cond.signal()
            yield from mutex.unlock(thread)

        for name, gen in (("c", consumer), ("p", producer)):
            placeholder = []

            def deferred(ph=placeholder):
                yield from ph[0]

            thread = kernel.spawn(deferred(), name)
            placeholder.append(gen(thread))
        machine = drive(builder)
        assert ready == []
        assert all(t.done for t in kernel.threads)


class TestSemaphore:
    def test_counting_semantics(self, single_guest):
        builder, kernel = single_guest
        sem = Semaphore(kernel, count=2)
        concurrent = [0]
        peak = [0]

        def worker(thread):
            for _ in range(10):
                yield from sem.down(thread)
                concurrent[0] += 1
                peak[0] = max(peak[0], concurrent[0])
                yield Compute(300 * US)
                concurrent[0] -= 1
                yield from sem.up(thread)
                yield Compute(100 * US)

        for index in range(5):
            placeholder = []

            def deferred(ph=placeholder):
                yield from ph[0]

            thread = kernel.spawn(deferred(), f"w{index}")
            placeholder.append(worker(thread))
        drive(builder)
        assert peak[0] <= 2
        assert all(t.done for t in kernel.threads)

    def test_negative_count_rejected(self, single_guest):
        _, kernel = single_guest
        with pytest.raises(ValueError):
            Semaphore(kernel, count=-1)


class TestOpenMPBarrier:
    @pytest.mark.parametrize("spin_budget", [0, 300_000, 10**12])
    def test_no_thread_passes_early(self, spin_budget):
        builder = StackBuilder(pcpus=4)
        kernel = builder.guest("vm", vcpus=4)
        barrier = OpenMPBarrier(kernel, parties=4, spin_budget_ns=spin_budget)
        phase_of = {}
        violations = []

        def worker(tag, thread):
            for phase in range(10):
                phase_of[tag] = phase
                yield Compute((1 + tag) * 200 * US)
                yield from barrier.wait(thread)
                # After the barrier, nobody may still be in an older phase.
                if min(phase_of.values()) < phase:
                    violations.append((phase, dict(phase_of)))

        for tag in range(4):
            placeholder = []

            def deferred(ph=placeholder):
                yield from ph[0]

            thread = kernel.spawn(deferred(), f"w{tag}")
            placeholder.append(worker(tag, thread))
        drive(builder)
        assert not violations
        assert barrier.releases.value == 10

    def test_passive_policy_uses_futex(self):
        builder = StackBuilder(pcpus=2)
        kernel = builder.guest("vm", vcpus=2)
        barrier = OpenMPBarrier(kernel, parties=2, spin_budget_ns=0)

        def worker(delay):
            def gen(thread):
                yield Compute(delay)
                yield from barrier.wait(thread)

            return gen

        for index, delay in enumerate((1 * MS, 30 * MS)):
            placeholder = []

            def deferred(ph=placeholder):
                yield from ph[0]

            thread = kernel.spawn(deferred(), f"w{index}")
            placeholder.append(worker(delay)(thread))
        drive(builder)
        assert barrier.futex_fallbacks.value >= 1

    def test_active_policy_spins(self):
        builder = StackBuilder(pcpus=2)
        kernel = builder.guest("vm", vcpus=2)
        barrier = OpenMPBarrier(kernel, parties=2, spin_budget_ns=10**12)

        def worker(delay):
            def gen(thread):
                yield Compute(delay)
                yield from barrier.wait(thread)

            return gen

        for index, delay in enumerate((1 * MS, 30 * MS)):
            placeholder = []

            def deferred(ph=placeholder):
                yield from ph[0]

            thread = kernel.spawn(deferred(), f"w{index}")
            placeholder.append(worker(delay)(thread))
        drive(builder)
        assert barrier.futex_fallbacks.value == 0
        assert all(t.done for t in kernel.threads)


class TestKernelSpinLock:
    def _contend(self, pv: bool, pcpus=1):
        """Two guests on one pCPU; the lock-holder can be preempted."""
        builder = StackBuilder(pcpus=pcpus)
        kernel = builder.guest(
            "vm", vcpus=2, guest_config=GuestConfig(pv_spinlock=pv)
        )
        rival = builder.guest("rival", vcpus=1)
        from tests.conftest import busy

        rival.spawn(busy(10 * SEC), "hog")
        lock = KernelSpinLock(kernel)
        completed = []

        # Enough iterations that execution spans many 30ms slices — the
        # holder must get preempted mid-critical-section sometimes.
        def worker(thread):
            for _ in range(500):
                yield from lock.critical_section(thread, 50 * US)
                yield Compute(50 * US)
            completed.append(thread.name)

        for index in range(2):
            placeholder = []

            def deferred(ph=placeholder):
                yield from ph[0]

            thread = kernel.spawn(deferred(), f"w{index}")
            placeholder.append(worker(thread))
        machine = drive(builder, until=20 * SEC)
        return lock, completed, kernel

    def test_plain_spinlock_correctness_under_preemption(self):
        lock, completed, _ = self._contend(pv=False)
        assert len(completed) == 2
        assert lock.acquisitions.value == 1000

    def test_pv_spinlock_yields_instead_of_spinning(self):
        lock, completed, _ = self._contend(pv=True)
        assert len(completed) == 2
        assert lock.pv_yields.value >= 1

    def test_release_by_non_holder_raises(self, single_guest):
        builder, kernel = single_guest
        lock = KernelSpinLock(kernel)
        failures = []

        def bad(thread):
            try:
                yield from lock.release(thread)
            except RuntimeError:
                failures.append(True)

        placeholder = []

        def deferred():
            yield from placeholder[0]

        thread = kernel.spawn(deferred(), "bad")
        placeholder.append(bad(thread))
        drive(builder, until=100 * MS)
        assert failures == [True]
