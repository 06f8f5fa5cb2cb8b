"""Xen-like hypervisor substrate.

This package implements the pieces of Xen that vScale interacts with:

* :mod:`repro.hypervisor.machine` — the physical host, its CPU pool, and the
  hypercall surface exposed to guests.
* :mod:`repro.hypervisor.domain` — domains (VMs), virtual CPUs and the narrow
  guest-facing interface.
* :mod:`repro.hypervisor.schedulers` — the pluggable scheduler zoo behind the
  :class:`~repro.hypervisor.schedulers.Scheduler` interface: the
  proportional-share credit scheduler (30 ms slice, 10 ms tick, 30 ms
  accounting, BOOST/UNDER/OVER priorities — the paper's substrate), a
  Credit2-style scheduler, a CFS-style weight/vruntime scheduler, the
  global-queue vrt scheduler, and a round-robin baseline; selected by name
  via ``HostConfig.scheduler`` or ``REPRO_SCHEDULER``.
* :mod:`repro.hypervisor.irq` — virtual interrupts, IPIs and event channels,
  with post-to-delivery latency accounting.
* :mod:`repro.hypervisor.dom0` — the centralized dom0/libxl monitoring cost
  model that vScale's decentralized channel is compared against (Figure 4).
"""

from repro.hypervisor.config import HostConfig
from repro.hypervisor.domain import Domain, GuestInterface, VCPU, VCPUState
from repro.hypervisor.irq import EventChannel, IRQ, IRQClass
from repro.hypervisor.machine import Machine, PCPU
from repro.hypervisor.schedulers import (
    CfsScheduler,
    Credit2Scheduler,
    CreditScheduler,
    RoundRobinScheduler,
    Scheduler,
    VrtScheduler,
    available as available_schedulers,
)

__all__ = [
    "HostConfig",
    "Scheduler",
    "CreditScheduler",
    "Credit2Scheduler",
    "CfsScheduler",
    "RoundRobinScheduler",
    "VrtScheduler",
    "available_schedulers",
    "Domain",
    "GuestInterface",
    "VCPU",
    "VCPUState",
    "EventChannel",
    "IRQ",
    "IRQClass",
    "Machine",
    "PCPU",
]
