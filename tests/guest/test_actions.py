"""Tests for the action DSL and waitable primitives."""

import pytest

from repro.guest.actions import (
    Compute,
    SpinFlag,
    SpinWait,
    UserSpinLock,
    WaitQueue,
)


class TestActionValidation:
    def test_negative_compute_rejected(self):
        with pytest.raises(ValueError):
            Compute(-1)

    def test_negative_spin_budget_rejected(self):
        with pytest.raises(ValueError):
            SpinWait(SpinFlag(), -5)


class TestSpinFlag:
    def test_latches_on_fire(self):
        flag = SpinFlag("f")
        assert not flag.latched
        flag.kernel = object.__new__(_FakeKernel)  # no waiters: safe
        flag.fire_all()
        assert flag.latched


class _FakeKernel:
    """Minimal kernel stand-in for waitable unit tests."""

    def __init__(self):
        self.satisfied = []
        self.woken = []
        self.executing = set()

    def spin_satisfied(self, thread, waitable):
        self.satisfied.append(thread)
        waitable.remove_spinner(thread)

    def wake_thread(self, thread):
        self.woken.append(thread)

    def thread_is_executing(self, thread):
        return thread in self.executing


class _FakeThread:
    def __init__(self, name):
        self.name = name

    def __repr__(self):
        return self.name


class TestWaitQueue:
    def test_fire_one_prefers_executing_spinner(self):
        kernel = _FakeKernel()
        queue = WaitQueue("q")
        queue.kernel = kernel
        idle_spinner = _FakeThread("idle")
        hot_spinner = _FakeThread("hot")
        sleeper = _FakeThread("sleeper")
        queue.add_spinner(idle_spinner)
        queue.add_spinner(hot_spinner)
        queue.add_blocked(sleeper)
        kernel.executing.add(hot_spinner)
        released = queue.fire_one()
        assert released is hot_spinner
        assert kernel.satisfied == [hot_spinner]

    def test_fire_one_falls_back_to_blocked(self):
        kernel = _FakeKernel()
        queue = WaitQueue("q")
        queue.kernel = kernel
        sleeper = _FakeThread("sleeper")
        queue.add_blocked(sleeper)
        assert queue.fire_one() is sleeper
        assert kernel.woken == [sleeper]

    def test_fire_one_empty_returns_none(self):
        queue = WaitQueue("q")
        queue.kernel = _FakeKernel()
        assert queue.fire_one() is None

    def test_fire_all_releases_everyone(self):
        kernel = _FakeKernel()
        queue = WaitQueue("q")
        queue.kernel = kernel
        spinner = _FakeThread("s")
        sleeper = _FakeThread("b")
        queue.add_spinner(spinner)
        queue.add_blocked(sleeper)
        assert queue.fire_all() == 2
        assert not queue.spinners and not queue.blocked

    def test_fire_before_any_wait_asserts(self):
        queue = WaitQueue("q")
        with pytest.raises(AssertionError):
            queue.fire_one()


class TestUserSpinLock:
    def test_try_acquire(self):
        lock = UserSpinLock("l")
        lock.kernel = _FakeKernel()
        a, b = _FakeThread("a"), _FakeThread("b")
        assert lock.try_acquire(a)
        assert not lock.try_acquire(b)
        lock.release()
        assert lock.try_acquire(b)

    def test_release_hands_to_executing_spinner(self):
        kernel = _FakeKernel()
        lock = UserSpinLock("l")
        lock.kernel = kernel
        holder, waiter = _FakeThread("h"), _FakeThread("w")
        assert lock.try_acquire(holder)
        lock.add_spinner(waiter)
        kernel.executing.add(waiter)
        lock.release()
        assert lock.holder is waiter
        assert not lock.free

    def test_release_with_preempted_spinners_leaves_lock_free(self):
        """A preempted spinner cannot grab the lock — Figure 1(a)."""
        kernel = _FakeKernel()
        lock = UserSpinLock("l")
        lock.kernel = kernel
        holder, waiter = _FakeThread("h"), _FakeThread("w")
        assert lock.try_acquire(holder)
        lock.add_spinner(waiter)  # not executing
        lock.release()
        assert lock.free
        assert lock.holder is None
        # When the spinner's vCPU resumes, it wins the free lock.
        assert lock.on_spinner_resumed(waiter)
        assert lock.holder is waiter
