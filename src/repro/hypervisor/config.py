"""Host-level configuration knobs.

Defaults follow the paper's testbed and Xen 4.5's credit-scheduler defaults:
a 30 ms time slice, 10 ms ticks, credit accounting every 30 ms, and a CPU
pool for guest domains that is separate from dom0's dedicated cores.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.units import MS, US


@dataclass
class HostConfig:
    """Configuration of the simulated physical host and its scheduler."""

    #: Number of physical CPUs in the guest pool (dom0 runs outside it).
    pcpus: int = 8
    #: Scheduler time slice — Xen's default is 30 ms.
    timeslice_ns: int = 30 * MS
    #: Credit-burning tick period — Xen's default is 10 ms.
    tick_ns: int = 10 * MS
    #: Credit (re)allocation period — Xen runs accounting every 3 ticks.
    acct_ns: int = 30 * MS
    #: Xen's sched_ratelimit_us (default 1000): a vCPU that just started
    #: running cannot be preempted — even by a BOOST wake — until it has
    #: run this long.  This is what makes cross-vCPU wake-ups expensive
    #: under consolidation: every futex-wake IPI to a busy pCPU stalls up
    #: to a millisecond before the woken vCPU can run.
    ratelimit_ns: int = 1 * MS
    #: Latency of delivering a virtual interrupt to a *running* vCPU.
    irq_delivery_ns: int = 1 * US
    #: vScale extendability recalculation period (paper: 10 ms).
    vscale_period_ns: int = 10 * MS
    #: Use per-VM weight (the paper's modification).  When False, a domain's
    #: share scales with its active vCPU count, as in unmodified Xen 4.5.
    #: No experiment or benchmark sets it to False; only
    #: ``tests/hypervisor/test_credit.py`` does, to check that share.
    per_vm_weight: bool = True
    #: Wake-up boost (Xen's BOOST priority) enabled.
    boost_enabled: bool = True
    #: Enable vCPU migration/stealing between pCPU runqueues.
    allow_stealing: bool = True
    #: Pool scheduler, by registry name (see
    #: :mod:`repro.hypervisor.schedulers`): "credit" (Xen 4.x csched, the
    #: paper's substrate), "credit2", "cfs", "vrt" or "rr".  ``None``
    #: defers to the ``REPRO_SCHEDULER`` environment variable and then to
    #: "credit", resolved when the Machine is built.
    scheduler: str | None = None

    def __post_init__(self) -> None:
        if self.pcpus < 1:
            raise ValueError("need at least one pCPU")
        if self.timeslice_ns <= 0 or self.tick_ns <= 0 or self.acct_ns <= 0:
            raise ValueError("timeslice, tick and accounting period must be positive")
        if self.acct_ns % self.tick_ns:
            raise ValueError("accounting period must be a multiple of the tick")
        # Imported here: the schedulers package imports domain, and config
        # must stay importable before the registry is populated.
        from repro.hypervisor.schedulers import get

        if self.scheduler is not None:
            get(self.scheduler)  # raises ValueError for unknown names
