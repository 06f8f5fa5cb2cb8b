"""Tests for the virtual-runtime scheduler and vScale's generality on it."""

import pytest

from repro.core.balancer import VScaleBalancer
from repro.core.daemon import VScaleDaemon
from repro.hypervisor.config import HostConfig
from repro.hypervisor.domain import VCPUState
from repro.units import MS, SEC
from tests.conftest import StackBuilder, busy


def vrt_stack(pcpus=2, seed=1):
    return StackBuilder(pcpus=pcpus, seed=seed, scheduler="vrt")


class TestConfig:
    def test_unknown_scheduler_rejected(self):
        with pytest.raises(ValueError):
            HostConfig(scheduler="lottery")

    def test_vrt_selected(self):
        from repro.hypervisor.schedulers.vrt import VrtScheduler

        builder = vrt_stack()
        assert isinstance(builder.machine.scheduler, VrtScheduler)


class TestProportionalSharing:
    def _shares(self, weights, duration=3 * SEC):
        builder = vrt_stack(pcpus=2)
        for index, weight in enumerate(weights):
            kernel = builder.guest(f"vm{index}", vcpus=2, weight=weight)
            for t in range(2):
                kernel.spawn(busy(10 * duration), f"b{t}")
        machine = builder.start()
        machine.run(until=duration)
        return {
            d.name: d.total_run_ns(machine.sim.now) for d in machine.domains
        }

    def test_equal_weights_equal_shares(self):
        totals = self._shares([256, 256])
        assert totals["vm0"] == pytest.approx(totals["vm1"], rel=0.05)

    def test_2to1_weights(self):
        totals = self._shares([512, 256])
        assert totals["vm0"] / totals["vm1"] == pytest.approx(2.0, rel=0.12)

    def test_work_conserving(self):
        totals = self._shares([256, 256], duration=2 * SEC)
        assert sum(totals.values()) >= 2 * 2 * SEC * 0.97


class TestWakeLatency:
    def test_waker_runs_promptly(self):
        builder = vrt_stack(pcpus=1)
        hog = builder.guest("hog", vcpus=1)
        sleeper = builder.guest("sleepy", vcpus=1)
        hog.spawn(busy(30 * SEC), "h")
        machine = builder.start()
        machine.run(until=200 * MS)
        vcpu = sleeper.domain.vcpus[0]
        assert vcpu.state is VCPUState.BLOCKED
        machine.hyp_wake(vcpu)
        machine.run(until=machine.sim.now + 15 * MS)
        vcpu.timer.flush(machine.sim.now)
        # Woken within the wake bonus + ratelimit window; it idles again
        # (no threads) after having been scheduled.
        assert vcpu.state is VCPUState.BLOCKED
        assert vcpu.timer.total(VCPUState.RUNNABLE.value) <= 15 * MS


class TestFreezeOnVrt:
    def test_per_vm_weight_preserved_after_freeze(self):
        builder = vrt_stack(pcpus=2)
        scaler = builder.guest("scaler", vcpus=2, weight=256)
        rival = builder.guest("rival", vcpus=2, weight=256)
        scaler.spawn(busy(60 * SEC), "one", pinned_to=0)
        for t in range(2):
            rival.spawn(busy(60 * SEC), f"r{t}")
        machine = builder.start()
        machine.run(until=200 * MS)
        machine.hyp_mark_freeze(scaler.domain.vcpus[1])
        machine.scheduler.vcpu_block(scaler.domain.vcpus[1])
        start = machine.sim.now
        base = scaler.domain.total_run_ns(start)
        machine.run(until=start + 3 * SEC)
        gained = scaler.domain.total_run_ns(machine.sim.now) - base
        # Half the 2-pCPU pool concentrated on one active vCPU.
        assert gained == pytest.approx(3 * SEC, rel=0.12)

    def test_balancer_freeze_unfreeze_roundtrip(self):
        builder = vrt_stack(pcpus=4)
        kernel = builder.guest("vm", vcpus=4)
        for index in range(4):
            kernel.spawn(busy(20 * SEC), f"w{index}")
        machine = builder.start()
        machine.run(until=100 * MS)
        balancer = VScaleBalancer(kernel)
        balancer.freeze(3)
        machine.run(until=machine.sim.now + 50 * MS)
        assert kernel.domain.vcpus[3].state is VCPUState.FROZEN
        balancer.unfreeze(3)
        machine.run(until=machine.sim.now + 100 * MS)
        assert kernel.domain.vcpus[3].state is not VCPUState.FROZEN
        assert sum(rq.load() for rq in kernel.runqueues) == 4


class TestVScaleEndToEndOnVrt:
    def test_daemon_scales_with_vrt_substrate(self):
        """The generality claim: the whole vScale loop runs unmodified on
        the virtual-runtime scheduler."""
        builder = vrt_stack(pcpus=4)
        worker = builder.guest("worker", vcpus=4, weight=256)
        rival = builder.guest("rival", vcpus=4, weight=256)
        for index in range(4):
            rival.spawn(busy(30 * SEC), f"r{index}")
        for index in range(4):
            worker.spawn(busy(30 * SEC), f"w{index}")
        builder.machine.install_vscale()
        daemon = VScaleDaemon(worker)
        daemon.install()
        machine = builder.start()
        machine.run(until=3 * SEC)
        # Equal weights, saturated rival: the worker converges towards its
        # ~2-pCPU entitlement.
        assert worker.online_vcpus <= 3
        assert daemon.reconfigurations >= 1
        # And accounting still closes.
        now = machine.sim.now
        for domain in machine.domains:
            for vcpu in domain.vcpus:
                vcpu.timer.flush(now)
                assert sum(vcpu.timer.totals.values()) == now
