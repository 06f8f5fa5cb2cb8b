"""Tests for thread classification and lifecycle."""

from repro.guest.threads import Thread, ThreadKind, ThreadState
from repro.units import MS, SEC
from tests.conftest import busy, chunks


class _KernelStub:
    pass


class TestClassification:
    def test_uthreads_are_migratable(self):
        thread = Thread(_KernelStub(), iter(()), "u", kind=ThreadKind.UTHREAD)
        assert thread.migratable

    def test_system_kthreads_are_migratable(self):
        thread = Thread(_KernelStub(), iter(()), "rcu_sched", kind=ThreadKind.KTHREAD_SYSTEM)
        assert thread.migratable

    def test_percpu_kthreads_are_not_migratable(self):
        thread = Thread(_KernelStub(), iter(()), "ksoftirqd/0", kind=ThreadKind.KTHREAD_PERCPU)
        assert not thread.migratable

    def test_pinning_removes_migratability(self):
        thread = Thread(_KernelStub(), iter(()), "u")
        thread.pinned_to = 1
        assert not thread.migratable

    def test_tids_are_unique_and_increasing(self):
        a = Thread(_KernelStub(), iter(()), "a")
        b = Thread(_KernelStub(), iter(()), "b")
        assert b.tid > a.tid


class TestLifecycle:
    def test_state_progression(self, single_guest):
        builder, kernel = single_guest
        thread = kernel.spawn(busy(50 * MS), "t")
        assert thread.state is ThreadState.READY
        machine = builder.start()
        machine.run(until=1 * SEC)
        assert thread.state is ThreadState.DONE
        assert thread.done

    def test_exec_accounting_accumulates(self, single_guest):
        builder, kernel = single_guest
        thread = kernel.spawn(chunks(5, 10 * MS), "t")
        machine = builder.start()
        machine.run(until=1 * SEC)
        assert thread.exec_ns >= 50 * MS
        assert thread.vruntime >= thread.exec_ns - 1 * MS

    def test_exit_listener_called_once(self, single_guest):
        builder, kernel = single_guest
        exits = []
        kernel.exit_listeners.append(lambda t: exits.append(t.name))
        kernel.spawn(busy(10 * MS), "t")
        machine = builder.start()
        machine.run(until=1 * SEC)
        assert exits.count("t") == 1

    def test_nonpreemptible_defaults_to_zero(self):
        thread = Thread(_KernelStub(), iter(()), "t")
        assert thread.nonpreemptible == 0
