"""A /proc-style introspection surface for the guest kernel.

The paper's Table 2 experiment reads ``/proc/interrupts`` inside the guest
to show that a frozen vCPU receives neither timer interrupts nor IPIs.
This module provides the equivalent read-only views over a
:class:`repro.guest.kernel.GuestKernel`, formatted like their Linux
counterparts so the output is immediately recognizable:

* :func:`proc_interrupts` — per-vCPU timer/IPI/event-channel counts;
* :func:`proc_stat` — per-vCPU run/wait/idle time (a /proc/stat analogue
  drawn from the hypervisor's state timers, i.e. steal time included).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.hypervisor.domain import VCPUState
from repro.metrics.report import Table

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.guest.kernel import GuestKernel


def proc_interrupts(kernel: "GuestKernel") -> str:
    """Per-vCPU interrupt counts, /proc/interrupts style."""
    kernel.sync_ticks()  # fold coalesced off-CPU ticks into the counters
    n = len(kernel.runqueues)
    table = Table("", ["", *[f"CPU{i}" for i in range(n)], ""])
    table.add_row(
        "LOC:",
        *[int(kernel.timer_interrupts[i]) for i in range(n)],
        "Local timer interrupts",
    )
    table.add_row(
        "RES:",
        *[int(kernel.domain.vcpus[i].ipi_received) for i in range(n)],
        "Rescheduling interrupts",
    )
    evtchn = [
        int(kernel.domain.vcpus[i].irq_delivered)
        - int(kernel.domain.vcpus[i].ipi_received)
        for i in range(n)
    ]
    table.add_row("EVT:", *evtchn, "Event-channel upcalls")
    # Strip the empty title lines the Table helper produces.
    return "\n".join(table.render().splitlines()[2:])


def proc_stat(kernel: "GuestKernel") -> str:
    """Per-vCPU time-in-state, /proc/stat style (values in ms).

    ``steal`` is the hypervisor's runnable-but-not-running time — the
    quantity Figure 9 aggregates per domain.
    """
    now = kernel.sim.now
    lines = ["cpu  state times in ms (run steal idle frozen)"]
    for index, vcpu in enumerate(kernel.domain.vcpus):
        vcpu.timer.flush(now)
        run = vcpu.timer.total(VCPUState.RUNNING.value) // 1_000_000
        steal = vcpu.timer.total(VCPUState.RUNNABLE.value) // 1_000_000
        idle = vcpu.timer.total(VCPUState.BLOCKED.value) // 1_000_000
        frozen = vcpu.timer.total(VCPUState.FROZEN.value) // 1_000_000
        lines.append(f"cpu{index} {run} {steal} {idle} {frozen}")
    return "\n".join(lines)
