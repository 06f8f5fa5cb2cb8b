"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.guest.actions import Compute
from repro.guest.kernel import GuestConfig, GuestKernel
from repro.hypervisor.config import HostConfig
from repro.hypervisor.machine import Machine


def busy(total_ns: int):
    """A thread behaviour that burns a fixed amount of CPU and exits."""
    yield Compute(total_ns)


def chunks(n: int, each_ns: int):
    """A thread behaviour of n separate compute chunks."""
    for _ in range(n):
        yield Compute(each_ns)


class StackBuilder:
    """Tiny helper to assemble machine+guests in tests."""

    def __init__(self, pcpus: int = 2, seed: int = 1, **host_kwargs):
        self.machine = Machine(HostConfig(pcpus=pcpus, **host_kwargs), seed=seed)
        self.kernels: dict[str, GuestKernel] = {}

    def guest(
        self, name: str, vcpus: int = 2, weight: int = 256, guest_config: GuestConfig | None = None, **domain_kwargs
    ) -> GuestKernel:
        domain = self.machine.create_domain(name, vcpus=vcpus, weight=weight, **domain_kwargs)
        kernel = GuestKernel(domain, guest_config)
        self.kernels[name] = kernel
        return kernel

    def start(self) -> Machine:
        self.machine.start()
        return self.machine


@pytest.fixture
def stack() -> StackBuilder:
    return StackBuilder()


@pytest.fixture
def single_guest():
    """One 2-vCPU guest alone on a 2-pCPU host, started."""
    builder = StackBuilder(pcpus=2)
    kernel = builder.guest("vm", vcpus=2)
    return builder, kernel
