"""Tests for the machine: hypercall surface, IRQ delivery semantics."""

import pytest

from repro.hypervisor.config import HostConfig
from repro.hypervisor.domain import VCPUState
from repro.hypervisor.irq import IRQ, IRQClass
from repro.hypervisor.machine import Machine
from repro.units import MS, SEC, US
from tests.conftest import StackBuilder, busy


class TestSetup:
    def test_duplicate_domain_name_rejected(self):
        machine = Machine(HostConfig(pcpus=1))
        machine.create_domain("vm", vcpus=1)
        with pytest.raises(ValueError):
            machine.create_domain("vm", vcpus=1)

    def test_start_requires_guests(self):
        machine = Machine(HostConfig(pcpus=1))
        machine.create_domain("vm", vcpus=1)
        with pytest.raises(RuntimeError):
            machine.start()

    def test_domain_after_start_rejected(self, single_guest):
        builder, _ = single_guest
        machine = builder.start()
        with pytest.raises(RuntimeError):
            machine.create_domain("late", vcpus=1)

    def test_double_start_rejected(self, single_guest):
        builder, _ = single_guest
        machine = builder.start()
        with pytest.raises(RuntimeError):
            machine.start()


class TestIRQDelivery:
    def test_irq_to_running_vcpu_delivered_quickly(self, single_guest):
        builder, kernel = single_guest
        kernel.spawn(busy(1 * SEC), "worker", pinned_to=0)
        machine = builder.start()
        machine.run(until=10 * MS)
        vcpu = kernel.domain.vcpus[0]
        assert vcpu.state is VCPUState.RUNNING
        channel = kernel.domain.new_event_channel("test", bound_vcpu=0)
        received = []
        channel.handler = received.append
        channel.post("hello")
        machine.run(until=machine.sim.now + 10 * US)
        assert received == ["hello"]
        # ~1us upcall latency.
        assert kernel.domain.io_delay.samples[-1] <= 5 * US

    def test_irq_wakes_blocked_vcpu(self, single_guest):
        builder, kernel = single_guest
        machine = builder.start()
        machine.run(until=10 * MS)
        vcpu = kernel.domain.vcpus[1]
        assert vcpu.state is VCPUState.BLOCKED
        channel = kernel.domain.new_event_channel("nic", bound_vcpu=1)
        received = []
        channel.handler = received.append
        channel.post("pkt")
        machine.run(until=machine.sim.now + 1 * MS)
        assert received == ["pkt"]

    def test_irq_to_queued_vcpu_waits_for_scheduling(self):
        """The Figure 1(c) delay: a preempted vCPU sees its interrupt only
        when the credit scheduler runs it again."""
        builder = StackBuilder(pcpus=1)
        victim = builder.guest("victim", vcpus=1)
        hog = builder.guest("hog", vcpus=1)
        victim.spawn(busy(10 * SEC), "v")
        hog.spawn(busy(10 * SEC), "h")
        machine = builder.start()
        machine.run(until=35 * MS)
        # One vCPU runs, the other waits in the queue.
        waiting = [
            d.vcpus[0]
            for d in machine.domains
            if d.vcpus[0].state is VCPUState.RUNNABLE
        ]
        assert len(waiting) == 1
        target = waiting[0]
        kernel = builder.kernels[target.domain.name]
        channel = target.domain.new_event_channel("nic", bound_vcpu=0)
        received = []
        channel.handler = lambda p: received.append(machine.sim.now)
        post_time = machine.sim.now
        channel.post("pkt")
        assert received == []  # not delivered while queued
        machine.run(until=machine.sim.now + 80 * MS)
        assert received, "interrupt lost"
        delay = received[0] - post_time
        assert delay >= 1 * MS  # queueing delay, not the 1us fast path

    def test_cross_domain_ipi_rejected(self, stack):
        a = stack.guest("a", vcpus=1)
        b = stack.guest("b", vcpus=1)
        stack.start()
        with pytest.raises(ValueError):
            stack.machine.hyp_send_ipi(
                a.domain.vcpus[0], b.domain.vcpus[0], IRQClass.RESCHED_IPI
            )

    def test_resched_ipi_to_frozen_vcpu_is_a_bug(self, single_guest):
        builder, kernel = single_guest
        machine = builder.start()
        vcpu = kernel.domain.vcpus[1]
        machine.hyp_mark_freeze(vcpu)
        machine.scheduler.vcpu_block(vcpu)
        assert vcpu.state is VCPUState.FROZEN
        with pytest.raises(RuntimeError):
            machine.post_irq(vcpu, IRQ(IRQClass.RESCHED_IPI, machine.sim.now))

    def test_call_ipi_wakes_frozen_vcpu(self, single_guest):
        """The smp_call_function shutdown path still reaches frozen vCPUs."""
        builder, kernel = single_guest
        machine = builder.start()
        vcpu = kernel.domain.vcpus[1]
        machine.hyp_mark_freeze(vcpu)
        machine.scheduler.vcpu_block(vcpu)
        machine.post_irq(vcpu, IRQ(IRQClass.CALL_IPI, machine.sim.now))
        assert vcpu.state is not VCPUState.FROZEN

    def test_delivery_latency_accounted_per_class(self, single_guest):
        builder, kernel = single_guest
        kernel.spawn(busy(1 * SEC), "w0", pinned_to=0)
        kernel.spawn(busy(1 * SEC), "w1", pinned_to=1)
        machine = builder.start()
        machine.run(until=5 * MS)
        domain = kernel.domain
        before = len(domain.ipi_delay.samples)
        machine.hyp_send_ipi(domain.vcpus[0], domain.vcpus[1], IRQClass.RESCHED_IPI)
        machine.run(until=machine.sim.now + 5 * MS)
        assert len(domain.ipi_delay.samples) == before + 1


class TestExtendabilityHypercall:
    def test_requires_vscale_extension(self, single_guest):
        builder, kernel = single_guest
        machine = builder.start()
        with pytest.raises(RuntimeError):
            machine.hyp_read_extendability(kernel.domain)

    def test_reads_after_install(self, single_guest):
        builder, kernel = single_guest
        builder.machine.install_vscale()
        machine = builder.start()
        machine.run(until=50 * MS)
        ext, n = machine.hyp_read_extendability(kernel.domain)
        assert ext > 0
        assert 1 <= n <= 2


class TestPoolAccounting:
    def test_idle_time_tracked(self, single_guest):
        builder, kernel = single_guest
        machine = builder.start()
        machine.run(until=1 * SEC)
        # Nothing ran: the whole pool was idle.
        assert machine.pool_idle_ns() == pytest.approx(2 * SEC, rel=0.01)
