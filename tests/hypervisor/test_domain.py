"""Tests for Domain/VCPU state handling and validation."""

import pytest

from repro.hypervisor.config import HostConfig
from repro.hypervisor.domain import VCPUState
from repro.hypervisor.machine import Machine


@pytest.fixture
def machine():
    return Machine(HostConfig(pcpus=2), seed=1)


class TestDomainValidation:
    def test_requires_at_least_one_vcpu(self, machine):
        with pytest.raises(ValueError):
            machine.create_domain("vm", vcpus=0)

    def test_requires_positive_weight(self, machine):
        with pytest.raises(ValueError):
            machine.create_domain("vm", vcpus=1, weight=0)

    def test_requires_positive_cap(self, machine):
        with pytest.raises(ValueError):
            machine.create_domain("vm", vcpus=1, cap=0)

    def test_requires_nonnegative_reservation(self, machine):
        with pytest.raises(ValueError):
            machine.create_domain("vm", vcpus=1, reservation=-1)

    def test_double_guest_attach_rejected(self, machine):
        from repro.guest.kernel import GuestKernel

        domain = machine.create_domain("vm", vcpus=1)
        GuestKernel(domain)
        with pytest.raises(RuntimeError):
            domain.attach_guest(object())


class TestVCPUState:
    def test_initial_state_blocked(self, machine):
        domain = machine.create_domain("vm", vcpus=2)
        for vcpu in domain.vcpus:
            assert vcpu.state is VCPUState.BLOCKED

    def test_set_state_accumulates_timer(self, machine):
        domain = machine.create_domain("vm", vcpus=1)
        vcpu = domain.vcpus[0]
        machine.sim.now = 100
        vcpu.set_state(VCPUState.RUNNABLE, 100)
        vcpu.set_state(VCPUState.RUNNING, 250)
        vcpu.timer.flush(400)
        assert vcpu.timer.total(VCPUState.BLOCKED.value) == 100
        assert vcpu.timer.total(VCPUState.RUNNABLE.value) == 150
        assert vcpu.timer.total(VCPUState.RUNNING.value) == 150

    def test_vcpu_names(self, machine):
        domain = machine.create_domain("vm", vcpus=2)
        assert domain.vcpus[1].name == "vm/v1"


class TestActiveVCPUs:
    def test_freeze_pending_excluded(self, machine):
        domain = machine.create_domain("vm", vcpus=3)
        domain.vcpus[2].freeze_pending = True
        assert domain.vcpus[2] not in domain.active_vcpus()
        assert len(domain.active_vcpus()) == 2


class TestEventChannels:
    def test_new_channel_registered(self, machine):
        domain = machine.create_domain("vm", vcpus=2)
        channel = domain.new_event_channel("nic", bound_vcpu=1)
        assert channel in domain.event_channels
        assert channel.bound_vcpu == 1

    def test_rebind_validates_index(self, machine):
        domain = machine.create_domain("vm", vcpus=2)
        channel = domain.new_event_channel("nic")
        with pytest.raises(ValueError):
            channel.rebind(5)
        channel.rebind(1)
        assert channel.bound_vcpu == 1
