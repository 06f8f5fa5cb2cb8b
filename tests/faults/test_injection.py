"""Tests for the fault injector's decision logic and fault-site wiring."""

from dataclasses import replace

import pytest

from repro.core.balancer import VScaleBalancer
from repro.core.channel import VScaleChannel
from repro.faults import (
    ChannelReadError,
    FaultConfig,
    FaultEvent,
    FaultInjector,
    FaultPlan,
    FreezeFailure,
    NO_FAULTS,
)
from repro.guest.actions import BlockOn, Compute, WaitQueue
from repro.guest.kernel import GuestKernel
from repro.hypervisor.config import HostConfig
from repro.hypervisor.irq import IRQClass
from repro.hypervisor.machine import Machine
from repro.units import MS, SEC
from tests.conftest import StackBuilder, busy


def drive(injector: FaultInjector, n: int = 50) -> list:
    """A fixed query sequence exercising every decision site."""
    decisions = []
    for i in range(n):
        decisions.append(injector.ipi_fault(IRQClass.RESCHED_IPI))
        decisions.append(injector.channel_fault())
        decisions.append(injector.freeze_fault())
        decisions.append(injector.daemon_delay_ns(i * 10 * MS, 10 * MS))
        decisions.append(injector.dom0_factor(i * 10 * MS))
    return decisions


class TestDeterminism:
    def test_same_plan_same_decisions(self):
        plan = FaultPlan(FaultConfig.scaled(0.3), seed=42)
        first = drive(FaultInjector(plan))
        second = drive(FaultInjector(plan))
        assert first == second

    def test_same_plan_same_stats(self):
        plan = FaultPlan(FaultConfig.scaled(0.3), seed=42)
        a, b = FaultInjector(plan), FaultInjector(plan)
        drive(a)
        drive(b)
        assert a.stats.to_dict() == b.stats.to_dict()

    def test_different_seed_different_decisions(self):
        plan = FaultPlan(FaultConfig.scaled(0.3), seed=42)
        assert drive(FaultInjector(plan)) != drive(FaultInjector(replace(plan, seed=43)))

    def test_zero_plan_injects_nothing(self):
        injector = FaultInjector(NO_FAULTS)
        decisions = drive(injector)
        assert all(d in (None, False, 0, 1.0) for d in decisions)
        assert not any(injector.stats.to_dict().values())


class TestIPISite:
    def test_only_resched_ipis_targeted(self):
        injector = FaultInjector(FaultPlan(FaultConfig(ipi_drop_rate=1.0)))
        assert injector.ipi_fault(IRQClass.CALL_IPI) is None
        assert injector.ipi_fault(IRQClass.EVTCHN) is None
        assert injector.ipi_fault(IRQClass.RESCHED_IPI) == ("drop", 0)
        assert injector.stats.ipis_dropped == 1

    def test_delay_is_positive(self):
        injector = FaultInjector(FaultPlan(FaultConfig(ipi_delay_rate=1.0)))
        kind, delay = injector.ipi_fault(IRQClass.RESCHED_IPI)
        assert kind == "delay"
        assert delay >= 1
        assert injector.stats.ipis_delayed == 1

    def _ping_pong(self, config: FaultConfig):
        """A waker on vCPU0 repeatedly firing a sleeper pinned to vCPU1 —
        every wake crosses vCPUs, so every round sends a reschedule IPI."""
        builder = StackBuilder(pcpus=2)
        kernel = builder.guest("vm", vcpus=2)
        builder.machine.install_faults(FaultPlan(config))
        queue = WaitQueue("q")
        queue.kernel = kernel
        progress = []

        def sleeper():
            for _ in range(20):
                yield BlockOn(queue)
                yield Compute(1 * MS)
                progress.append(kernel.sim.now)

        def waker():
            for _ in range(20):
                yield Compute(5 * MS)
                queue.fire_one()

        kernel.spawn(sleeper(), "sleeper", pinned_to=1)
        kernel.spawn(waker(), "waker", pinned_to=0)
        machine = builder.start()
        machine.run(until=1 * SEC)
        return machine, progress

    def test_machine_marks_dropped_ipis(self):
        machine, progress = self._ping_pong(FaultConfig(ipi_drop_rate=1.0))
        assert machine.faults.stats.ipis_dropped > 0
        # Despite every reschedule IPI being lost, the hypervisor-side wake
        # still happens and the sleeper keeps making progress.
        assert len(progress) == 20

    def test_machine_delayed_ipis_still_arrive(self):
        machine, progress = self._ping_pong(FaultConfig(ipi_delay_rate=1.0))
        assert machine.faults.stats.ipis_delayed > 0
        assert len(progress) == 20


class TestChannelSite:
    def _channel(self, config: FaultConfig):
        machine = Machine(HostConfig(pcpus=2), seed=1)
        domain = machine.create_domain("vm", vcpus=2)
        GuestKernel(domain)
        machine.install_vscale()
        machine.install_faults(FaultPlan(config))
        machine.start()
        machine.run(until=50 * MS)
        return machine, VScaleChannel(domain)

    def test_fail_raises_and_counts(self):
        machine, channel = self._channel(FaultConfig(channel_fail_rate=1.0))
        with pytest.raises(ChannelReadError) as exc_info:
            channel.read_info()
        assert exc_info.value.cost_ns > 0
        assert channel.failed_reads == 1
        assert machine.faults.stats.channel_failures == 1

    def test_stale_replays_oldest_reading(self):
        machine, channel = self._channel(FaultConfig(channel_stale_rate=1.0))
        first = channel.read_info()
        assert not first.stale  # no history yet: falls back to a fresh read
        machine.run(until=machine.sim.now + 50 * MS)
        second = channel.read_info()
        assert second.stale
        assert second.published_at_ns == first.published_at_ns
        assert channel.stale_reads == 1


class TestBalancerSite:
    def test_freeze_failure_charges_cost_but_leaves_state(self):
        builder = StackBuilder(pcpus=4)
        kernel = builder.guest("vm", vcpus=4)
        builder.machine.install_faults(FaultPlan(FaultConfig(freeze_fail_rate=1.0)))
        for index in range(4):
            kernel.spawn(busy(10 * SEC), f"w{index}")
        machine = builder.start()
        machine.run(until=50 * MS)
        balancer = VScaleBalancer(kernel)
        with pytest.raises(FreezeFailure) as exc_info:
            balancer.freeze(3)
        assert exc_info.value.op == "freeze"
        assert exc_info.value.cost_ns > 0
        assert balancer.failed_ops == 1
        assert 3 not in kernel.cpu_freeze_mask
        assert machine.faults.stats.freeze_failures == 1


class TestDom0Site:
    def test_burst_multiplies_sweep_cost(self):
        injector = FaultInjector(
            FaultPlan(FaultConfig(dom0_burst_rate=1.0, dom0_burst_factor=8.0))
        )
        assert injector.dom0_factor() == 8.0
        assert injector.stats.dom0_bursts == 1

    def test_scripted_burst_fires_once(self):
        plan = FaultPlan(
            events=(FaultEvent(at_ns=100 * MS, site="dom0_burst", magnitude=4.0),)
        )
        injector = FaultInjector(plan)
        assert injector.dom0_factor(100 * MS) == 4.0
        assert injector.dom0_factor(100 * MS) == 1.0  # consumed
        assert injector.stats.dom0_bursts == 1


class TestDaemonTimerSite:
    def test_scripted_stall_fires_once(self):
        plan = FaultPlan(
            events=(
                FaultEvent(at_ns=25 * MS, site="daemon_stall", magnitude=3.0),
            )
        )
        injector = FaultInjector(plan)
        assert injector.daemon_delay_ns(20 * MS, 10 * MS) == 3 * 10 * MS
        assert injector.daemon_delay_ns(20 * MS, 10 * MS) == 0
        assert injector.stats.daemon_stalls == 1

    def test_scripted_stall_duration_overrides_magnitude(self):
        plan = FaultPlan(
            events=(
                FaultEvent(
                    at_ns=5 * MS, site="daemon_stall",
                    duration_ns=7 * MS, magnitude=3.0,
                ),
            )
        )
        injector = FaultInjector(plan)
        assert injector.daemon_delay_ns(0, 10 * MS) == 7 * MS

    def test_stochastic_stall_is_whole_periods(self):
        config = FaultConfig(daemon_stall_rate=1.0, daemon_stall_periods=4)
        injector = FaultInjector(FaultPlan(config))
        assert injector.daemon_delay_ns(0, 10 * MS) == 4 * 10 * MS
        assert injector.stats.daemon_stalls == 1
