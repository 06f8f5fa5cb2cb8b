"""The physical host: pCPUs, the CPU pool, and the hypercall surface.

The :class:`Machine` owns the simulator clock, the pool scheduler (chosen
from the registry in :mod:`repro.hypervisor.schedulers`) and all domains.  Guests interact with it exclusively through hypercall-style
methods (``hyp_*``); devices post work through event channels; the vScale
hypervisor extension (see :mod:`repro.core.extendability`) hooks in through
:attr:`Machine.vscale`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.hypervisor.config import HostConfig
from repro.hypervisor.domain import Domain, VCPU, VCPUState
from repro.hypervisor.schedulers import create as create_scheduler
from repro.hypervisor.irq import IRQ, IRQClass
from repro.hypervisor.xenstore import XenStore
from repro.sim.engine import Event, Simulator
from repro.sim.rng import SeedSequenceFactory
from repro.sim.trace import NULL_TRACER, Tracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.extendability import VScaleExtension
    from repro.faults import FaultInjector, FaultPlan
    from repro.sanitize import Sanitizer

# Enum members read per interrupt, as module constants (a global load is
# several times cheaper than ``VCPUState.RUNNING`` on Python 3.11).
_RUNNING = VCPUState.RUNNING
_BLOCKED = VCPUState.BLOCKED
_FROZEN = VCPUState.FROZEN
_EVTCHN = IRQClass.EVTCHN
_CALL_IPI = IRQClass.CALL_IPI


class PCPU:
    """A physical CPU in the guest pool."""

    __slots__ = (
        "machine",
        "index",
        "current",
        "_slice_event",
        "idle_ns",
        "_idle_since",
    )

    def __init__(self, machine: "Machine", index: int):
        self.machine = machine
        self.index = index
        self.current: VCPU | None = None
        self._slice_event: Event | None = None
        #: Cumulative idle time, for pool-slack sanity checks.
        self.idle_ns = 0
        self._idle_since: int | None = 0

    @property
    def name(self) -> str:
        return f"pcpu{self.index}"

    def set_current(self, vcpu: VCPU, now: int) -> None:
        if self._idle_since is not None:
            self.idle_ns += now - self._idle_since
            self._idle_since = None
        self.current = vcpu

    def clear_current(self, now: int) -> None:
        self.current = None
        self._idle_since = now
        self.cancel_slice()

    def set_idle(self, now: int) -> None:
        if self.current is None and self._idle_since is None:
            self._idle_since = now

    def flush_idle(self, now: int) -> int:
        """Fold any open idle interval into the total and return it."""
        if self._idle_since is not None:
            self.idle_ns += now - self._idle_since
            self._idle_since = now
        return self.idle_ns

    def arm_slice(self, timeslice_ns: int) -> None:
        self.cancel_slice()
        self._slice_event = self.machine.sim.schedule(
            timeslice_ns, self.machine.slice_expired, self
        )

    def cancel_slice(self) -> None:
        if self._slice_event is not None:
            self._slice_event.cancel()
            self._slice_event = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        running = self.current.name if self.current else "idle"
        return f"<PCPU {self.index}: {running}>"


class Machine:
    """The simulated host."""

    def __init__(
        self,
        config: HostConfig | None = None,
        sim: Simulator | None = None,
        seed: int = 1,
        tracer: Tracer | None = None,
    ):
        self.config = config or HostConfig()
        self.sim = sim or Simulator()
        self.seed = seed
        self.seeds = SeedSequenceFactory(seed)
        #: Structured tracer (xentrace-style).  Off by default; pass a
        #: Tracer with enabled categories to record scheduling decisions,
        #: interrupt delivery and vScale reconfigurations.
        self.tracer = tracer or NULL_TRACER
        self.pool = [PCPU(self, i) for i in range(self.config.pcpus)]
        self.domains: list[Domain] = []
        #: The host's xenstore instance — the durable state substrate the
        #: recovery protocols (daemon restart, balancer re-sync) read back.
        #: Construction schedules nothing, so it is bit-identity safe.
        self.xenstore = XenStore(self)
        # Registry lookup: an explicit config name wins, then the
        # REPRO_SCHEDULER environment variable, then the credit default.
        self.scheduler = create_scheduler(self.config.scheduler, self)
        #: Optional vScale scheduler extension (set by install_vscale()).
        self.vscale: "VScaleExtension | None" = None
        #: Optional fault injector (set by install_faults()).  Every fault
        #: site checks this for None first, so the happy path costs one
        #: attribute load and nothing else.
        self.faults: "FaultInjector | None" = None
        #: Optional invariant checker (set by install_sanitizer(), or
        #: automatically when REPRO_SANITIZE=1).  Same None-check contract
        #: as self.faults at every hook site.
        self.sanitizer: "Sanitizer | None" = None
        # Insertion-ordered (dict, not set): iteration order must be
        # deterministic across runs for reproducibility.
        self._resched_pending: dict[PCPU, None] = {}
        self._started = False
        #: Observers notified on every vCPU context switch, used by traces.
        self.context_listeners: list[Callable[[VCPU, bool], None]] = []
        # Opt-in binary trace streaming: REPRO_TRACE=path (or an active
        # capture_to block) attaches a streaming tracer to every machine
        # built.  Must run before the sanitizer hook below, which keeps an
        # already-installed tracer instead of swapping in its own.
        # Imported here to avoid a module cycle.
        from repro.tracelog.capture import maybe_install as tracelog_install

        tracelog_install(self)
        # Opt-in invariant checking: REPRO_SANITIZE=1 makes every machine
        # (including ones built inside experiment worker processes)
        # self-install a sanitizer.  Imported here to avoid a module cycle.
        from repro.sanitize import enabled as sanitize_enabled

        if sanitize_enabled():
            self.install_sanitizer()

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def create_domain(
        self,
        name: str,
        vcpus: int,
        weight: int = 256,
        cap: float | None = None,
        reservation: float = 0.0,
    ) -> Domain:
        if self._started:
            raise RuntimeError("domains must be created before start()")
        if any(d.name == name for d in self.domains):
            raise ValueError(f"duplicate domain name {name!r}")
        domain = Domain(self, name, vcpus, weight=weight, cap=cap, reservation=reservation)
        self.domains.append(domain)
        return domain

    def install_vscale(self) -> "VScaleExtension":
        """Install the vScale scheduler extension (extendability ticker).

        Only ``start()`` arms the ticker, so the extension must be installed
        before it; a repeat call returns the installed extension.
        """
        from repro.core.extendability import VScaleExtension

        if self.vscale is None:
            if self._started:
                raise RuntimeError("the vScale extension must be installed before start()")
            self.vscale = VScaleExtension(self)
        return self.vscale

    def install_faults(self, plan: "FaultPlan") -> "FaultInjector":
        """Install a fault injector driven by *plan*.

        The injector draws from streams derived from the plan's own seed,
        so the workload's RNG streams are untouched and a zero-rate plan
        leaves the run bit-for-bit identical to no plan at all.
        """
        from repro.faults import FaultInjector

        self.faults = FaultInjector(plan)
        return self.faults

    def install_tracer(
        self, categories: "frozenset[str] | set[str] | None" = None
    ) -> Tracer:
        """Install (or extend) a recording tracer on this machine.

        With no arguments this turns on every category except the
        "dispatch" firehose, buffered in a small ring — a
        :class:`repro.tracelog.codec.TraceWriter` streaming from the
        tracer (``stream_into``) is what persists the full event
        sequence.  Requesting "dispatch" also wires the simulator's
        per-event ``dispatch_trace`` hook.
        """
        if categories is None:
            categories = Tracer.KNOWN_CATEGORIES - {"dispatch"}
        if self.tracer is NULL_TRACER:
            self.tracer = Tracer(categories, capacity=2048, ring=True)
        else:
            for category in categories:
                self.tracer.enable(category)
        if "dispatch" in categories and self.sim.dispatch_trace is None:
            self.sim.dispatch_trace = self._trace_dispatch
        return self.tracer

    def _trace_dispatch(self, sim: Simulator, event: Event) -> None:
        """``sim.dispatch_trace`` hook: one record per event dispatch."""
        fn = event.fn
        module = getattr(fn, "__module__", "") or ""
        qualname = getattr(fn, "__qualname__", None) or type(fn).__name__
        self.tracer.emit(
            event.time, "dispatch", "fire", f"{module}.{qualname}", seq=event.seq
        )

    def install_sanitizer(self) -> "Sanitizer":
        """Install the cross-layer invariant checker (see repro.sanitize)."""
        from repro.sanitize import Sanitizer

        if self.sanitizer is None:
            Sanitizer(self).install()
        assert self.sanitizer is not None
        return self.sanitizer

    def start(self) -> None:
        """Arm the scheduler and boot every domain's vCPU0.

        Guests must already be attached.  vCPU0 of each domain is woken
        (guests bring up their own work from there); secondary vCPUs wake
        when the guest gives them work.
        """
        if self._started:
            raise RuntimeError("machine already started")
        for domain in self.domains:
            if domain.guest is None:
                raise RuntimeError(f"domain {domain.name} has no guest attached")
        self._started = True
        self.scheduler.start()
        if self.vscale is not None:
            self.vscale.start()
        # Boot every vCPU; guests park the ones with nothing to do at once.
        for domain in self.domains:
            for vcpu in domain.vcpus:
                if vcpu.state is VCPUState.BLOCKED:
                    self.scheduler.vcpu_wake(vcpu)
        self._drain_resched()

    @property
    def started(self) -> bool:
        return self._started

    def run(self, until: int) -> None:
        """Convenience wrapper around the simulator."""
        self.sim.run(until=until)

    # ------------------------------------------------------------------
    # Deferred rescheduling
    # ------------------------------------------------------------------
    # All scheduler invocations are funnelled through zero-delay events so
    # that guest upcalls (vcpu_started/vcpu_stopped) never recurse into the
    # scheduler while it is mid-decision.
    def request_reschedule(self, pcpu: PCPU) -> None:
        if pcpu in self._resched_pending:
            return
        self._resched_pending[pcpu] = None
        self.sim.schedule(0, self._do_reschedule, pcpu)

    def _do_reschedule(self, pcpu: PCPU) -> None:
        self._resched_pending.pop(pcpu, None)
        self.scheduler.schedule(pcpu)

    def _drain_resched(self) -> None:
        """Used by start() so the initial placement happens at t=0."""
        while self._resched_pending:
            pcpu = next(iter(self._resched_pending))
            self._do_reschedule(pcpu)

    def slice_expired(self, pcpu: PCPU) -> None:
        pcpu._slice_event = None  # fired: nothing left to cancel
        self.request_reschedule(pcpu)

    # ------------------------------------------------------------------
    # Context-switch notifications (guest + IRQ delivery + listeners)
    # ------------------------------------------------------------------
    def vcpu_context_entered(self, vcpu: VCPU) -> None:
        guest = vcpu.domain.guest
        assert guest is not None
        # Per-event trace sites test the category before building their
        # arguments, so untraced runs pay one set lookup per record.
        tracer = self.tracer
        if tracer.enabled_for("sched"):
            tracer.emit(
                self.sim.now, "sched", "run", vcpu.name,
                pcpu=vcpu.pcpu.index if vcpu.pcpu else -1,
            )
        guest.vcpu_started(vcpu)
        self._flush_pending_irqs(vcpu)
        for listener in self.context_listeners:
            listener(vcpu, True)

    def vcpu_context_left(self, vcpu: VCPU) -> None:
        guest = vcpu.domain.guest
        assert guest is not None
        tracer = self.tracer
        if tracer.enabled_for("sched"):
            tracer.emit(self.sim.now, "sched", "stop", vcpu.name)
        guest.vcpu_stopped(vcpu)
        for listener in self.context_listeners:
            listener(vcpu, False)

    # ------------------------------------------------------------------
    # Interrupt plumbing
    # ------------------------------------------------------------------
    def post_irq(self, vcpu: VCPU, irq: IRQ) -> None:
        """Post an interrupt towards a vCPU, waking it if blocked.

        Delivery semantics (the crux of Figure 1):

        * RUNNING target — delivered after the short upcall latency.
        * BLOCKED target — the vCPU is woken (BOOST applies) and the IRQ is
          delivered when it starts running.
        * RUNNABLE target — the IRQ stays pending until the credit scheduler
          gets around to running the vCPU: the full queueing delay applies.
        * FROZEN target — only function-call IPIs wake a frozen vCPU (the
          shutdown path); everything else is a caller bug, because vScale
          rebinds event channels and the guest never reschedule-IPIs a
          frozen sibling.
        """
        if vcpu.state is _FROZEN and irq.irq_class is not _CALL_IPI:
            raise RuntimeError(
                f"{irq.irq_class.value} posted to frozen vCPU {vcpu.name}"
            )
        tracer = self.tracer
        if tracer.enabled_for("irq"):
            tracer.emit(
                self.sim.now, "irq", "post", vcpu.name, kind=irq.irq_class.value
            )
        vcpu.pending_irqs.append(irq)
        if vcpu.state is _RUNNING:
            self.sim.schedule(self.config.irq_delivery_ns, self._deliver_one, vcpu, irq)
        elif vcpu.state is _BLOCKED or (vcpu.state is _FROZEN and irq.irq_class is _CALL_IPI):
            if vcpu.state is _FROZEN:
                self.scheduler.vcpu_unfreeze(vcpu)
            self.scheduler.vcpu_wake(vcpu)
        # RUNNABLE: nothing to do — delivered via _flush_pending_irqs later.

    def _deliver_one(self, vcpu: VCPU, irq: IRQ) -> None:
        if irq not in vcpu.pending_irqs:
            return  # already flushed by a context switch in between
        if vcpu.state is not _RUNNING:
            return  # went to sleep/preempted first; flushed at next start
        vcpu.pending_irqs.remove(irq)
        self._account_delivery(vcpu, irq)
        assert vcpu.domain.guest is not None
        vcpu.domain.guest.deliver_irq(vcpu, irq)

    def _flush_pending_irqs(self, vcpu: VCPU) -> None:
        while vcpu.pending_irqs:
            irq = vcpu.pending_irqs.pop(0)
            self._account_delivery(vcpu, irq)
            assert vcpu.domain.guest is not None
            vcpu.domain.guest.deliver_irq(vcpu, irq)
            if vcpu.state is not _RUNNING:
                break  # the handler blocked/froze the vCPU

    def _account_delivery(self, vcpu: VCPU, irq: IRQ) -> None:
        delay = self.sim.now - irq.post_time
        tracer = self.tracer
        if tracer.enabled_for("irq"):
            tracer.emit(
                self.sim.now, "irq", "deliver", vcpu.name,
                kind=irq.irq_class.value, delay_ns=delay,
            )
        domain = vcpu.domain
        vcpu.irq_delivered.inc()
        if irq.irq_class is _EVTCHN:
            domain.io_delay.record(delay)
        else:
            vcpu.ipi_received.inc()
            domain.ipi_delay.record(delay)

    # ------------------------------------------------------------------
    # Hypercall surface (guest -> hypervisor)
    # ------------------------------------------------------------------
    def hyp_block(self, vcpu: VCPU) -> None:
        """SCHEDOP_block: the guest's idle loop parks the vCPU.

        Like Xen's, the block checks for events that were posted while the
        vCPU was still running (their delivery events race with the idle
        transition): blocking with a pending upcall would lose interrupts,
        so such a vCPU wakes right back up and handles them.
        """
        self.scheduler.vcpu_block(vcpu)
        if vcpu.pending_irqs and vcpu.state is _BLOCKED:
            self.scheduler.vcpu_wake(vcpu)

    def hyp_wake(self, vcpu: VCPU) -> None:
        """Wake a blocked sibling vCPU (evtchn kick from inside the guest)."""
        self.scheduler.vcpu_wake(vcpu)

    def hyp_yield(self, vcpu: VCPU) -> None:
        """SCHEDOP_yield: pv-spinlock's give-up-the-CPU path."""
        self.scheduler.vcpu_yield(vcpu)

    def hyp_send_ipi(self, src: VCPU, dst: VCPU, irq_class: IRQClass, payload: object = None) -> IRQ:
        """Send a virtual IPI between two vCPUs of the same domain.

        With a fault injector installed, reschedule IPIs can be dropped or
        delayed in flight.  A *dropped* IPI loses the guest-visible
        interrupt only: if the target was blocked it is still woken,
        matching Xen's event-channel model where the pending bit is set
        even when the upcall is masked/lost — dropping the wake too would
        deadlock a blocked target forever, which is not the failure mode
        we are modelling.
        """
        if src.domain is not dst.domain:
            raise ValueError("IPIs cannot cross domains")
        irq = IRQ(irq_class=irq_class, post_time=self.sim.now, payload=payload)
        if self.faults is not None:
            fate = self.faults.ipi_fault(irq_class)
            if fate is not None:
                kind, delay_ns = fate
                irq.fault = "dropped" if kind == "drop" else "delayed"
                self.tracer.emit(
                    self.sim.now, "fault", f"ipi_{irq.fault}", dst.name,
                    kind=irq_class.value,
                )
                if kind == "drop":
                    if dst.state is VCPUState.BLOCKED:
                        self.scheduler.vcpu_wake(dst)
                    return irq
                self.sim.schedule(delay_ns, self._post_faulted_irq, dst, irq)
                return irq
        self.post_irq(dst, irq)
        return irq

    def _post_faulted_irq(self, dst: VCPU, irq: IRQ) -> None:
        """Deliver a delayed IPI, re-checking the target's state at arrival.

        The target may have been frozen while the IPI was in flight; a
        reschedule IPI to a frozen vCPU is illegal (post_irq asserts), so
        the late arrival is discarded instead — exactly what Xen does when
        the pending bit belongs to a channel bound to an offlined vCPU.
        """
        if dst.state is VCPUState.FROZEN and irq.irq_class is not IRQClass.CALL_IPI:
            assert self.faults is not None
            self.faults.note_late_drop()
            self.tracer.emit(self.sim.now, "fault", "ipi_dropped_late", dst.name)
            return
        self.post_irq(dst, irq)

    def hyp_mark_freeze(self, vcpu: VCPU) -> None:
        """SCHEDOP_freezecpu: stop crediting this vCPU (Algorithm 2 step 3).

        The target vCPU must still run briefly to migrate its threads away,
        so this hypercall only *marks* it: credit accounting drops it from
        the domain's active list immediately, and the scheduler completes
        the freeze when the guest's idle path blocks the vCPU.
        """
        if vcpu.state is VCPUState.FROZEN:
            return
        vcpu.freeze_pending = True
        self.tracer.emit(self.sim.now, "vscale", "freeze_mark", vcpu.name)
        if self.vscale is not None:
            self.vscale.note_reconfiguration(vcpu.domain)

    def hyp_unfreeze_vcpu(self, vcpu: VCPU) -> None:
        """Undo a freeze (or cancel a pending one) and wake the vCPU."""
        self.tracer.emit(self.sim.now, "vscale", "unfreeze", vcpu.name)
        self.scheduler.vcpu_unfreeze(vcpu)
        self.scheduler.vcpu_wake(vcpu)
        if self.vscale is not None:
            self.vscale.note_reconfiguration(vcpu.domain)

    def hyp_tickle_vcpu(self, vcpu: VCPU) -> None:
        """Prioritize a vCPU with a pending reconfiguration IPI (paper §4.2)."""
        self.scheduler.tickle_vcpu(vcpu)

    def hyp_read_extendability(self, domain: Domain) -> tuple[int, int]:
        """SCHEDOP_getvscaleinfo: read (extendability_ns, optimal_vcpus).

        Raises if the vScale extension is not installed, mirroring an
        ENOSYS from a hypervisor without the patch.
        """
        if self.vscale is None:
            raise RuntimeError("vScale extension not installed on this host")
        return self.vscale.read(domain)

    # ------------------------------------------------------------------
    # Pool introspection
    # ------------------------------------------------------------------
    def pool_idle_ns(self) -> int:
        now = self.sim.now
        return sum(pcpu.flush_idle(now) for pcpu in self.pool)
