"""Tests for the baseline scaling managers."""

import pytest

from repro.core.baselines import HotplugScaler, VCPUBalManager
from repro.guest.hotplug import HotplugModel
from repro.hypervisor.dom0 import Dom0Load, Dom0Toolstack
from repro.sim.rng import SeedSequenceFactory
from repro.units import SEC
from tests.conftest import StackBuilder, busy


class TestVCPUBal:
    def _build(self):
        builder = StackBuilder(pcpus=4)
        worker = builder.guest("worker", vcpus=4, weight=256)
        rival = builder.guest("rival", vcpus=4, weight=768)
        seeds = SeedSequenceFactory(9)
        dom0 = Dom0Toolstack(seeds.generator("dom0"), load=Dom0Load.IDLE)
        model = HotplugModel("v3.14.15", seeds.generator("hp"))
        manager = VCPUBalManager(worker, dom0, model)
        return builder, worker, rival, manager

    def test_weight_only_target(self):
        builder, worker, rival, manager = self._build()
        builder.machine.install_vscale()
        builder.start()
        # worker weight share = 256/1024 of 4 pCPUs = 1 pCPU -> target 1,
        # regardless of what the rival actually consumes.
        assert manager._weight_only_target(builder.machine) == 1

    def test_manager_scales_down_via_hotplug(self):
        builder, worker, rival, manager = self._build()
        builder.machine.install_vscale()
        manager.install()
        for index in range(4):
            worker.spawn(busy(30 * SEC), f"w{index}")
        machine = builder.start()
        machine.run(until=3 * SEC)
        # Weight-only target is 1: it removes vCPUs even though the rival
        # is completely idle — the non-work-conserving flaw.
        assert worker.online_vcpus < 4
        assert manager.reconfigurations >= 1

    def test_double_install_rejected(self):
        builder, worker, rival, manager = self._build()
        manager.install()
        with pytest.raises(RuntimeError):
            manager.install()


class TestHotplugScaler:
    def test_scaler_reacts_but_slowly(self):
        builder = StackBuilder(pcpus=4)
        worker = builder.guest("worker", vcpus=4, weight=256)
        rival = builder.guest("rival", vcpus=4, weight=256)
        builder.machine.install_vscale()
        seeds = SeedSequenceFactory(4)
        scaler = HotplugScaler(worker, HotplugModel("v3.14.15", seeds.generator("hp")))
        scaler.install()
        for index in range(4):
            rival.spawn(busy(30 * SEC), f"r{index}")
        for index in range(4):
            worker.spawn(busy(30 * SEC), f"w{index}")
        machine = builder.start()
        machine.run(until=3 * SEC)
        assert scaler.reconfigurations >= 1
        assert worker.online_vcpus < 4

    def test_double_install_rejected(self):
        builder = StackBuilder(pcpus=2)
        worker = builder.guest("worker", vcpus=2)
        builder.machine.install_vscale()
        seeds = SeedSequenceFactory(4)
        scaler = HotplugScaler(worker, HotplugModel("v4.2", seeds.generator("hp")))
        scaler.install()
        with pytest.raises(RuntimeError):
            scaler.install()
