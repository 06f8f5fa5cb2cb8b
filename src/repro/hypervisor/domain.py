"""Domains (VMs) and virtual CPUs.

A :class:`Domain` owns a set of :class:`VCPU` objects and a reference to a
guest implementation behind the :class:`GuestInterface` protocol.  The
hypervisor side never reaches into guest state — everything crosses the
boundary through that interface (downcalls) or through hypercall-style
methods on :class:`repro.hypervisor.machine.Machine` (upcalls), mirroring the
cross-layer boundary of the paper.
"""

from __future__ import annotations

import enum
from typing import Protocol, TYPE_CHECKING

from repro.metrics.collectors import Counter, LatencyReservoir, StateTimer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.hypervisor.irq import IRQ, EventChannel
    from repro.hypervisor.machine import Machine, PCPU


class VCPUState(enum.Enum):
    """Hypervisor-visible vCPU states.

    ``FROZEN`` corresponds to vScale's "frozen" vCPU: the guest has evicted
    all work from it and told the hypervisor to stop giving it credits.  It
    is distinct from ``BLOCKED`` (idle, wake-able by any event) because a
    frozen vCPU is skipped by credit accounting and never auto-woken; only
    an explicit unfreeze (or, for the function-call IPI corner case, a
    ``smp_call_function`` during shutdown) brings it back.
    """

    RUNNING = "running"
    RUNNABLE = "runnable"
    BLOCKED = "blocked"
    FROZEN = "frozen"


# Members read on every vCPU transition, as module constants (a global
# load is several times cheaper than ``VCPUState.FROZEN`` on Python 3.11).
_RUNNING = VCPUState.RUNNING
_RUNNABLE = VCPUState.RUNNABLE
_FROZEN = VCPUState.FROZEN


class Priority(enum.IntEnum):
    """Credit-scheduler priorities, ordered best-first (Xen's csched)."""

    BOOST = 0
    UNDER = 1
    OVER = 2


class GuestInterface(Protocol):
    """What a guest must implement to be hosted by the hypervisor.

    The real system's analogue is the set of entry points Xen uses to run a
    paravirtualized guest: start/stop of a vCPU context and interrupt
    upcalls.
    """

    def vcpu_started(self, vcpu: "VCPU") -> None:
        """The vCPU just started running on ``vcpu.pcpu``."""

    def vcpu_stopped(self, vcpu: "VCPU") -> None:
        """The vCPU was descheduled; freeze all in-guest progress."""

    def deliver_irq(self, vcpu: "VCPU", irq: "IRQ") -> None:
        """An interrupt reached the (running) vCPU."""


class VCPU:
    """One virtual CPU of a domain, as seen by the credit scheduler."""

    __slots__ = (
        "domain",
        "index",
        "name",
        "state",
        "priority",
        "credits",
        "pcpu",
        "last_pcpu",
        "pending_irqs",
        "boosted",
        "freeze_pending",
        "timer",
        "run_started_at",
        "irq_delivered",
        "ipi_received",
    )

    def __init__(self, domain: "Domain", index: int):
        self.domain = domain
        self.index = index
        #: ``<domain>/v<index>``, built once: trace records use it per event.
        self.name = f"{domain.name}/v{index}"
        self.state = VCPUState.BLOCKED
        self.priority = Priority.UNDER
        #: Credit balance in nanoseconds of pCPU time.
        self.credits: float = 0.0
        #: pCPU this vCPU is currently running on (None unless RUNNING).
        self.pcpu: "PCPU | None" = None
        #: Last pCPU it ran on — used for wake placement affinity.
        self.last_pcpu: "PCPU | None" = None
        #: Interrupts posted while not running, delivered at next start.
        self.pending_irqs: list["IRQ"] = []
        #: Set while the vCPU holds BOOST due to a wake-up.
        self.boosted = False
        #: Algorithm 2 step 3: the guest marked this vCPU for freezing.  It
        #: stops earning credits immediately but keeps running until its
        #: thread migration finishes and it idles into the FROZEN state.
        self.freeze_pending = False
        #: Time-in-state accounting (running / runnable / blocked / frozen).
        self.timer = StateTimer(VCPUState.BLOCKED.value)
        #: Start timestamp of the current RUNNING interval.
        self.run_started_at: int | None = None
        #: Counters for Table 2 / Figures 10 and 13.
        self.irq_delivered = Counter()
        self.ipi_received = Counter()

    def set_state(self, new_state: VCPUState, now: int) -> None:
        """Transition state, folding elapsed time into the state timer.

        Transitions into or out of FROZEN are announced to the guest
        *before* they take effect: a guest coalescing its off-CPU scheduler
        ticks must fold the elided ticks under the old freeze condition
        (see ``GuestKernel._coalesce_fold``).
        """
        machine = self.domain.machine
        sanitizer = machine.sanitizer
        if sanitizer is not None:
            sanitizer.check_vcpu_transition(self, new_state)
        # Hot path: the enabled_for() set lookup keeps untraced runs from
        # paying for record construction on every transition.  The
        # runnable<->running edges are exactly the scheduler's sched/run
        # and sched/stop records (which also carry the pCPU), so emitting
        # them here would double the trace volume for no information.
        if (
            new_state is not self.state
            and machine.tracer.enabled_for("sched")
            and not (
                new_state is _RUNNING
                and self.state is _RUNNABLE
                or new_state is _RUNNABLE
                and self.state is _RUNNING
            )
        ):
            machine.tracer.emit(
                now, "sched", "state", self.name,
                old=self.state.value, new=new_state.value,
            )
        if (new_state is _FROZEN) != (self.state is _FROZEN):
            guest = self.domain.guest
            if guest is not None:
                edge = getattr(guest, "vcpu_frozen_edge", None)
                if edge is not None:
                    edge(self)
        # ``_value_`` is the plain attribute behind the ``value`` property.
        self.timer.transition(new_state._value_, now)
        self.state = new_state

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<VCPU {self.name} {self.state.value} prio={self.priority.name}>"


class Domain:
    """A virtual machine: weight/cap parameters, vCPUs and its guest."""

    def __init__(
        self,
        machine: "Machine",
        name: str,
        vcpu_count: int,
        weight: int = 256,
        cap: float | None = None,
        reservation: float = 0.0,
    ):
        if vcpu_count < 1:
            raise ValueError("a domain needs at least one vCPU")
        if weight <= 0:
            raise ValueError("weight must be positive")
        if cap is not None and cap <= 0:
            raise ValueError("cap, when set, must be positive (in pCPUs)")
        if reservation < 0:
            raise ValueError("reservation cannot be negative")
        self.machine = machine
        self.name = name
        self.weight = weight
        #: Upper bound on CPU consumption, in pCPUs (None = uncapped).
        self.cap = cap
        #: Lower bound on CPU allocation, in pCPUs.
        self.reservation = reservation
        self.vcpus = [VCPU(self, i) for i in range(vcpu_count)]
        self.guest: GuestInterface | None = None
        self.event_channels: list["EventChannel"] = []
        #: CPU consumed in the current vScale accounting window (ns).
        self.window_consumed_ns: int = 0
        #: Latest extendability published by the hypervisor extension, in ns
        #: of CPU per period, and the derived optimal vCPU count.
        self.extendability_ns: int | None = None
        self.optimal_vcpus: int | None = None
        #: When the published values above were last refreshed (sim ns);
        #: the daemon's staleness guard compares against this.
        self.extendability_published_ns: int | None = None
        #: Cumulative consumption, for fairness tests.
        self.total_consumed_ns: int = 0
        #: Post-to-delivery latency distributions per IRQ class.
        self.ipi_delay = LatencyReservoir()
        self.io_delay = LatencyReservoir()

    # ------------------------------------------------------------------
    def attach_guest(self, guest: GuestInterface) -> None:
        if self.guest is not None:
            raise RuntimeError(f"{self.name} already has a guest attached")
        self.guest = guest

    def active_vcpus(self) -> list[VCPU]:
        """vCPUs participating in credit accounting.

        Excludes both fully frozen vCPUs and those marked freeze-pending:
        the paper's csched_acct change removes a vCPU from the domain's
        active list as soon as the guest marks it, so siblings start
        earning more credits without waiting for migration to finish.
        """
        return [
            v
            for v in self.vcpus
            if v.state is not VCPUState.FROZEN and not v.freeze_pending
        ]

    def new_event_channel(self, name: str, bound_vcpu: int = 0) -> "EventChannel":
        from repro.hypervisor.irq import EventChannel

        channel = EventChannel(self, name, bound_vcpu)
        self.event_channels.append(channel)
        return channel

    # ------------------------------------------------------------------
    # Aggregate accounting helpers used by experiments
    # ------------------------------------------------------------------
    def total_wait_ns(self, now: int) -> int:
        """Total time any vCPU of this domain sat runnable-but-not-running."""
        total = 0
        for vcpu in self.vcpus:
            vcpu.timer.flush(now)
            total += vcpu.timer.total(VCPUState.RUNNABLE.value)
        return total

    def total_run_ns(self, now: int) -> int:
        total = 0
        for vcpu in self.vcpus:
            vcpu.timer.flush(now)
            total += vcpu.timer.total(VCPUState.RUNNING.value)
        return total

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Domain {self.name} w={self.weight} vcpus={len(self.vcpus)}>"
