"""Tests for interrupt behaviour at the guest/hypervisor boundary."""

from repro.guest.actions import BlockOn, Compute, WaitQueue
from repro.hypervisor.domain import VCPUState
from repro.hypervisor.irq import IRQClass
from repro.units import MS, SEC, US
from tests.conftest import busy


class TestEventChannelRouting:
    def test_handler_runs_on_bound_vcpu(self, single_guest):
        builder, kernel = single_guest
        kernel.spawn(busy(1 * SEC), "w0", pinned_to=0)
        kernel.spawn(busy(1 * SEC), "w1", pinned_to=1)
        machine = builder.start()
        machine.run(until=10 * MS)
        channel = kernel.domain.new_event_channel("nic", bound_vcpu=1)
        contexts = []
        channel.handler = lambda p: contexts.append(kernel.current_vcpu_index())
        channel.post("x")
        machine.run(until=machine.sim.now + 5 * MS)
        assert contexts == [1]

    def test_rebind_moves_delivery(self, single_guest):
        builder, kernel = single_guest
        kernel.spawn(busy(1 * SEC), "w0", pinned_to=0)
        kernel.spawn(busy(1 * SEC), "w1", pinned_to=1)
        machine = builder.start()
        machine.run(until=10 * MS)
        channel = kernel.domain.new_event_channel("nic", bound_vcpu=0)
        contexts = []
        channel.handler = lambda p: contexts.append(kernel.current_vcpu_index())
        channel.post("a")
        machine.run(until=machine.sim.now + 5 * MS)
        channel.rebind(1)
        channel.post("b")
        machine.run(until=machine.sim.now + 5 * MS)
        assert contexts == [0, 1]

    def test_burst_of_posts_all_delivered(self, single_guest):
        builder, kernel = single_guest
        kernel.spawn(busy(1 * SEC), "w0", pinned_to=0)
        machine = builder.start()
        machine.run(until=10 * MS)
        channel = kernel.domain.new_event_channel("nic", bound_vcpu=0)
        received = []
        channel.handler = received.append
        for index in range(50):
            channel.post(index)
        machine.run(until=machine.sim.now + 20 * MS)
        assert received == list(range(50))


class TestIPICounting:
    def test_counters_attribute_sender_and_receiver(self, single_guest):
        builder, kernel = single_guest
        machine = builder.start()
        machine.run(until=5 * MS)
        queue = WaitQueue("q")
        queue.kernel = kernel

        def sleeper():
            yield BlockOn(queue)
            yield Compute(1 * MS)

        def waker():
            yield Compute(2 * MS)
            queue.fire_one()
            yield Compute(50 * MS)

        kernel.spawn(sleeper(), "s", pinned_to=1)
        kernel.spawn(waker(), "w", pinned_to=0)
        machine.run(until=machine.sim.now + 100 * MS)
        assert int(kernel.ipi_sent[0]) == 1
        assert int(kernel.domain.vcpus[1].ipi_received) == 1
        assert int(kernel.ipi_sent[1]) == 0

    def test_ipi_delay_recorded_per_domain(self, single_guest):
        builder, kernel = single_guest
        machine = builder.start()
        machine.run(until=5 * MS)
        domain = kernel.domain
        src = domain.vcpus[0]
        dst = domain.vcpus[1]
        machine.scheduler.vcpu_wake(src)
        machine.run(until=machine.sim.now + 1 * MS)
        before = len(domain.ipi_delay.samples)
        machine.hyp_send_ipi(src, dst, IRQClass.RESCHED_IPI)
        machine.run(until=machine.sim.now + 20 * MS)
        assert len(domain.ipi_delay.samples) == before + 1
        assert domain.ipi_delay.samples[-1] >= 0


class TestBlockRace:
    def test_block_with_pending_irq_rewakes(self, single_guest):
        """The SCHEDOP_block event-check: a vCPU must not sleep on top of
        a pending upcall (regression test for the lost-interrupt race)."""
        builder, kernel = single_guest
        machine = builder.start()
        machine.run(until=5 * MS)
        vcpu = kernel.domain.vcpus[1]
        assert vcpu.state is VCPUState.BLOCKED
        channel = kernel.domain.new_event_channel("nic", bound_vcpu=1)
        received = []
        channel.handler = received.append

        # Wake the vCPU, post while it runs, and have it idle immediately:
        # the pending IRQ must still be delivered promptly.
        machine.hyp_wake(vcpu)
        machine.run(until=machine.sim.now + 100 * US)
        channel.post("racy")
        machine.run(until=machine.sim.now + 50 * MS)
        assert received == ["racy"]
