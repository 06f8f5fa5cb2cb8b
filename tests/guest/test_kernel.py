"""Tests for the guest kernel: dispatch, preemption, load balancing,
dynticks, and the freeze-mask migration path."""

import pytest

from repro.guest.actions import BlockOn, Compute, SpinFlag, WaitQueue, YieldCPU
from repro.guest.threads import ThreadState
from repro.hypervisor.domain import VCPUState
from repro.units import MS, SEC
from tests.conftest import StackBuilder, busy


class TestBasicExecution:
    def test_single_thread_runs_to_completion(self, single_guest):
        builder, kernel = single_guest
        thread = kernel.spawn(busy(100 * MS), "t")
        machine = builder.start()
        machine.run(until=1 * SEC)
        assert thread.done
        assert thread.exec_ns >= 100 * MS

    def test_compute_duration_is_respected(self, single_guest):
        builder, kernel = single_guest
        done_at = []

        def job():
            yield Compute(50 * MS)
            done_at.append(kernel.sim.now)

        kernel.spawn(job(), "timed")
        machine = builder.start()
        machine.run(until=1 * SEC)
        # Dedicated vCPU: finishes in ~50ms (+ context switch overhead).
        assert done_at and 50 * MS <= done_at[0] <= 51 * MS

    def test_threads_spread_across_vcpus(self, single_guest):
        builder, kernel = single_guest
        t0 = kernel.spawn(busy(200 * MS), "a")
        t1 = kernel.spawn(busy(200 * MS), "b")
        machine = builder.start()
        machine.run(until=150 * MS)
        assert {t0.vcpu_index, t1.vcpu_index} == {0, 1}

    def test_timeshare_on_one_vcpu(self, single_guest):
        builder, kernel = single_guest
        t0 = kernel.spawn(busy(100 * MS), "a", pinned_to=0)
        t1 = kernel.spawn(busy(100 * MS), "b", pinned_to=0)
        machine = builder.start()
        machine.run(until=90 * MS)
        # CFS slicing: both made comparable progress.
        assert t0.exec_ns > 20 * MS
        assert t1.exec_ns > 20 * MS

    def test_yield_rotates_threads(self, single_guest):
        builder, kernel = single_guest
        order = []

        def polite(tag):
            for _ in range(3):
                order.append(tag)
                yield Compute(1 * MS)
                yield YieldCPU()

        kernel.spawn(polite("x"), "x", pinned_to=0)
        kernel.spawn(polite("y"), "y", pinned_to=0)
        machine = builder.start()
        machine.run(until=1 * SEC)
        assert order.count("x") == 3 and order.count("y") == 3
        # They alternated rather than running back-to-back.
        assert order[:4] in (["x", "y", "x", "y"], ["y", "x", "y", "x"])

    def test_rt_thread_preempts_fair(self, single_guest):
        builder, kernel = single_guest
        kernel.spawn(busy(1 * SEC), "fair", pinned_to=0)
        progress = []

        def rt_job():
            yield Compute(1 * MS)
            progress.append(kernel.sim.now)

        machine = builder.start()
        machine.run(until=20 * MS)
        kernel.spawn(rt_job(), "rt", rt=True, pinned_to=0)
        machine.run(until=40 * MS)
        assert progress, "RT thread did not run promptly"
        assert progress[0] <= 30 * MS


class TestBlockingAndWakeup:
    def test_block_and_wake(self, single_guest):
        builder, kernel = single_guest
        queue = WaitQueue("q")
        queue.kernel = kernel
        stages = []

        def waiter():
            stages.append("sleep")
            yield BlockOn(queue)
            stages.append("woke")

        def waker():
            yield Compute(20 * MS)
            queue.fire_one()

        kernel.spawn(waiter(), "waiter")
        kernel.spawn(waker(), "waker")
        machine = builder.start()
        machine.run(until=1 * SEC)
        assert stages == ["sleep", "woke"]

    def test_cross_vcpu_wake_sends_ipi(self, single_guest):
        builder, kernel = single_guest
        queue = WaitQueue("q")
        queue.kernel = kernel

        def waiter():
            yield BlockOn(queue)
            yield Compute(1 * MS)

        def waker():
            yield Compute(5 * MS)
            queue.fire_one()
            yield Compute(200 * MS)  # keep the waker's vCPU busy

        kernel.spawn(waiter(), "waiter", pinned_to=1)
        kernel.spawn(waker(), "waker", pinned_to=0)
        machine = builder.start()
        machine.run(until=100 * MS)
        assert int(kernel.ipi_sent[0]) >= 1
        assert int(kernel.domain.vcpus[1].ipi_received) >= 1

    def test_local_wake_sends_no_ipi(self, single_guest):
        builder, kernel = single_guest
        queue = WaitQueue("q")
        queue.kernel = kernel

        def waiter():
            yield BlockOn(queue)

        def waker():
            yield Compute(5 * MS)
            queue.fire_one()

        kernel.spawn(waiter(), "waiter", pinned_to=0)
        kernel.spawn(waker(), "waker", pinned_to=0)
        machine = builder.start()
        machine.run(until=100 * MS)
        assert int(kernel.ipi_sent[0]) == 0

    def test_timer_wake(self, single_guest):
        builder, kernel = single_guest
        woke_at = []

        def sleeper():
            flag = SpinFlag("alarm")
            kernel.start_timer(30 * MS, flag)
            yield BlockOn(flag)
            woke_at.append(kernel.sim.now)

        kernel.spawn(sleeper(), "sleeper")
        machine = builder.start()
        machine.run(until=1 * SEC)
        assert woke_at and 30 * MS <= woke_at[0] <= 32 * MS


class TestDynticks:
    def test_idle_vcpu_receives_no_timer_interrupts(self, single_guest):
        builder, kernel = single_guest
        kernel.spawn(busy(2 * SEC), "w", pinned_to=0)
        machine = builder.start()
        machine.run(until=1 * SEC)
        assert int(kernel.timer_interrupts[0]) >= 900
        assert int(kernel.timer_interrupts[1]) == 0

    def test_tick_rate_is_1000hz(self, single_guest):
        builder, kernel = single_guest
        kernel.spawn(busy(2 * SEC), "w", pinned_to=0)
        machine = builder.start()
        machine.run(until=1 * SEC)
        assert int(kernel.timer_interrupts[0]) == pytest.approx(1000, abs=10)


class TestLoadBalancing:
    def test_idle_balance_pulls_backlog(self, single_guest):
        builder, kernel = single_guest
        machine = builder.start()
        machine.run(until=5 * MS)
        # Spawn three pinned to vCPU0, then unpin: vCPU1's idle/periodic
        # balance should pull at least one over.
        threads = [kernel.spawn(busy(300 * MS), f"t{i}", pinned_to=0) for i in range(3)]
        for t in threads:
            t.pinned_to = None
        machine.run(until=100 * MS)
        assert any(t.vcpu_index == 1 for t in threads)

    def test_wakeup_balance_avoids_frozen(self, single_guest):
        builder, kernel = single_guest
        machine = builder.start()
        kernel.cpu_freeze_mask.add(1)
        queue = WaitQueue("q")
        queue.kernel = kernel

        def waiter():
            yield BlockOn(queue)
            yield Compute(10 * MS)

        thread = kernel.spawn(waiter(), "w")
        machine.run(until=5 * MS)
        kernel.run_in_context(0, queue.fire_one)
        machine.run(until=10 * MS)
        assert thread.vcpu_index == 0

    def test_all_vcpus_frozen_is_an_error(self, single_guest):
        builder, kernel = single_guest
        kernel.cpu_freeze_mask.update({0, 1})
        with pytest.raises(RuntimeError):
            kernel.spawn(busy(MS), "doomed")


class TestFreezeMigration:
    def _freeze_one(self, builder, kernel, index=1):
        from repro.core.balancer import VScaleBalancer

        balancer = VScaleBalancer(kernel)
        balancer.freeze(index)
        return balancer

    def test_threads_migrate_off_frozen_vcpu(self, single_guest):
        builder, kernel = single_guest
        threads = [kernel.spawn(busy(2 * SEC), f"t{i}") for i in range(4)]
        machine = builder.start()
        machine.run(until=50 * MS)
        self._freeze_one(builder, kernel, 1)
        machine.run(until=machine.sim.now + 20 * MS)
        vcpu1 = kernel.domain.vcpus[1]
        assert vcpu1.state is VCPUState.FROZEN
        assert all(t.vcpu_index == 0 for t in threads if not t.done)
        assert kernel.runqueues[1].load() == 0

    def test_frozen_vcpu_stops_ticking(self, single_guest):
        builder, kernel = single_guest
        for i in range(4):
            kernel.spawn(busy(5 * SEC), f"t{i}")
        machine = builder.start()
        machine.run(until=50 * MS)
        self._freeze_one(builder, kernel, 1)
        machine.run(until=machine.sim.now + 50 * MS)
        ticks_at_freeze = int(kernel.timer_interrupts[1])
        machine.run(until=machine.sim.now + 500 * MS)
        assert int(kernel.timer_interrupts[1]) == ticks_at_freeze

    def test_unfreeze_pulls_work_back(self, single_guest):
        from repro.core.balancer import VScaleBalancer

        builder, kernel = single_guest
        threads = [kernel.spawn(busy(5 * SEC), f"t{i}") for i in range(4)]
        machine = builder.start()
        machine.run(until=50 * MS)
        balancer = VScaleBalancer(kernel)
        balancer.freeze(1)
        machine.run(until=machine.sim.now + 50 * MS)
        balancer.unfreeze(1)
        machine.run(until=machine.sim.now + 200 * MS)
        assert kernel.domain.vcpus[1].state is not VCPUState.FROZEN
        assert any(t.vcpu_index == 1 for t in threads if not t.done)

    def test_event_channels_rebound_away(self, single_guest):
        builder, kernel = single_guest
        channel = kernel.domain.new_event_channel("nic", bound_vcpu=1)
        for i in range(2):
            kernel.spawn(busy(2 * SEC), f"t{i}")
        machine = builder.start()
        machine.run(until=50 * MS)
        self._freeze_one(builder, kernel, 1)
        machine.run(until=machine.sim.now + 20 * MS)
        assert channel.bound_vcpu == 0

    def test_percpu_kthreads_not_migrated(self, single_guest):
        builder, kernel = single_guest
        kernel.spawn(busy(1 * SEC), "u")
        machine = builder.start()
        machine.run(until=50 * MS)
        self._freeze_one(builder, kernel, 1)
        machine.run(until=machine.sim.now + 20 * MS)
        for servant in kernel.percpu_kthreads[1]:
            assert servant.vcpu_index == 1
            assert servant.state is ThreadState.BLOCKED


class TestSpinBudgetAccounting:
    def test_spin_budget_counts_on_cpu_time_only(self):
        """A spinner on a descheduled vCPU must not consume its budget."""
        from repro.guest.actions import SpinWait

        builder = StackBuilder(pcpus=1)
        kernel = builder.guest("vm", vcpus=1)
        rival = builder.guest("rival", vcpus=1)
        rival.spawn(busy(10 * SEC), "hog")
        flag = SpinFlag("never")
        flag.kernel = kernel
        outcome = []

        def spinner():
            fired = yield SpinWait(flag, 40 * MS)
            outcome.append((fired, kernel.sim.now))

        kernel.spawn(spinner(), "s")
        machine = builder.start()
        machine.run(until=2 * SEC)
        assert outcome, "spin never timed out"
        fired, at = outcome[0]
        assert fired is False
        # 40ms of on-CPU spinning, but the vCPU only had ~50% of a pCPU:
        # wall-clock must be >= ~70ms.
        assert at >= 70 * MS

    def test_spin_released_by_fire(self, single_guest):
        from repro.guest.actions import SpinWait

        builder, kernel = single_guest
        flag = SpinFlag("go")
        flag.kernel = kernel
        outcome = []

        def spinner():
            fired = yield SpinWait(flag, 10 * SEC)
            outcome.append((fired, kernel.sim.now))

        def firer():
            yield Compute(5 * MS)
            flag.fire_all()

        kernel.spawn(spinner(), "s", pinned_to=0)
        kernel.spawn(firer(), "f", pinned_to=1)
        machine = builder.start()
        machine.run(until=1 * SEC)
        assert outcome and outcome[0][0] is True
        assert outcome[0][1] <= 6 * MS

    def test_latched_flag_skips_wait(self, single_guest):
        builder, kernel = single_guest
        flag = SpinFlag("latched")
        flag.kernel = kernel
        flag.fire_all()
        done = []

        def late_waiter():
            yield BlockOn(flag)
            done.append(kernel.sim.now)

        kernel.spawn(late_waiter(), "late")
        machine = builder.start()
        machine.run(until=10 * MS)
        assert done and done[0] <= 1 * MS
