"""Tests for the XenStore control-plane model."""

import pytest

from repro.hypervisor.config import HostConfig
from repro.hypervisor.machine import Machine
from repro.hypervisor.xenstore import (
    XenStore,
    XenStoreError,
    availability_path,
)
from repro.units import MS, SEC
from tests.conftest import StackBuilder, busy


@pytest.fixture
def store():
    machine = Machine(HostConfig(pcpus=1), seed=1)
    machine.create_domain("vm", vcpus=1)
    from repro.guest.kernel import GuestKernel

    GuestKernel(machine.domains[0])
    machine.start()
    return machine, XenStore(machine)


class TestTree:
    def test_write_lands_after_latency(self, store):
        machine, xs = store
        xs.write("/local/domain/vm/key", "value")
        assert not xs.exists("/local/domain/vm/key")
        machine.run(until=machine.sim.now + xs.write_latency_ns + 1)
        assert xs.read("/local/domain/vm/key") == "value"

    def test_read_missing_raises(self, store):
        _, xs = store
        with pytest.raises(XenStoreError):
            xs.read("/nope")

    def test_relative_paths_rejected(self, store):
        _, xs = store
        with pytest.raises(ValueError):
            xs.write("relative/path", "x")



class TestWatches:
    def test_watch_fires_on_subtree_write(self, store):
        machine, xs = store
        fired = []
        xs.watch("/local/domain/vm", lambda p, v: fired.append((p, v)))
        xs.write("/local/domain/vm/cpu/1/availability", "offline")
        machine.run(until=machine.sim.now + 1 * MS)
        assert fired == [("/local/domain/vm/cpu/1/availability", "offline")]

    def test_watch_does_not_fire_elsewhere(self, store):
        machine, xs = store
        fired = []
        xs.watch("/local/domain/vm", lambda p, v: fired.append(p))
        xs.write("/local/domain/other/key", "x")
        machine.run(until=machine.sim.now + 1 * MS)
        assert fired == []

    def test_watch_latency_is_modeled(self, store):
        machine, xs = store
        times = []
        xs.watch("/a", lambda p, v: times.append(machine.sim.now))
        start = machine.sim.now
        xs.write("/a/b", "1")
        machine.run(until=machine.sim.now + 5 * MS)
        assert times
        assert times[0] >= start + xs.write_latency_ns + xs.watch_latency_ns


class TestXenBusCpuDriver:
    def test_offline_key_freezes_vcpu(self):
        from repro.guest.hotplug import HotplugMechanism, HotplugModel, XenBusCpuDriver
        from repro.hypervisor.domain import VCPUState
        from repro.hypervisor.xenstore import XenStore

        builder = StackBuilder(pcpus=2)
        kernel = builder.guest("vm", vcpus=2)
        kernel.spawn(busy(5 * SEC), "w")
        machine = builder.start()
        machine.run(until=20 * MS)
        xs = XenStore(machine)
        model = HotplugModel("v3.14.15", machine.seeds.generator("hp"))
        driver = XenBusCpuDriver(kernel, xs, HotplugMechanism(kernel, model))
        xs.write(availability_path("vm", 1), "offline")
        machine.run(until=machine.sim.now + 500 * MS)
        assert kernel.domain.vcpus[1].state is VCPUState.FROZEN
        assert driver.events
        xs.write(availability_path("vm", 1), "online")
        machine.run(until=machine.sim.now + 500 * MS)
        assert kernel.domain.vcpus[1].state is not VCPUState.FROZEN

    def test_vcpu0_writes_ignored(self):
        from repro.guest.hotplug import HotplugMechanism, HotplugModel, XenBusCpuDriver
        from repro.hypervisor.xenstore import XenStore

        builder = StackBuilder(pcpus=2)
        kernel = builder.guest("vm", vcpus=2)
        machine = builder.start()
        xs = XenStore(machine)
        model = HotplugModel("v4.2", machine.seeds.generator("hp"))
        XenBusCpuDriver(kernel, xs, HotplugMechanism(kernel, model))
        xs.write(availability_path("vm", 0), "offline")
        machine.run(until=machine.sim.now + 500 * MS)
        assert 0 not in kernel.cpu_freeze_mask
