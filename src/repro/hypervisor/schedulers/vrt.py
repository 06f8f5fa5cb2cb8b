"""A virtual-runtime proportional-share scheduler (Credit2/BVT class).

The paper claims Algorithm 1 "is generic and thus can be easily integrated
into various proportional-share schedulers, such as the virtual-runtime
based ones and their variations".  This module backs that claim with a
second scheduler implementation behind the same interface as
:class:`repro.hypervisor.schedulers.credit.CreditScheduler`:

* each vCPU carries a **virtual runtime** advanced by
  ``elapsed / effective_weight`` while it runs, so CPU time converges to
  weight proportions (per-VM weight: a domain's weight is split across its
  *active* vCPUs, exactly like the paper's patched credit scheduler);
* a global run order by smallest vruntime, with per-pCPU dispatch;
* wake-up latency comes for free: sleepers' vruntimes are clamped forward
  to ``min_vruntime - wake_bonus`` so they run soon but cannot monopolize;
* preemption when the running vCPU's vruntime exceeds the best waiter's
  by more than the scheduling granularity, still honoring the rate limit.

The vScale extension is scheduler-agnostic (it reads per-domain
consumption from :class:`repro.hypervisor.domain.Domain`), so freezing,
extendability and the daemon all work unchanged on top of this scheduler —
`benchmarks/test_generality.py` demonstrates it end to end.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, ClassVar, Iterator

from repro.hypervisor.domain import Domain, Priority, VCPU, VCPUState
from repro.hypervisor.schedulers.base import Scheduler, register
from repro.units import MS

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.hypervisor.machine import Machine, PCPU


@register
class VrtScheduler(Scheduler):
    """Virtual-runtime weighted-fair scheduler for the guest pool."""

    name: ClassVar[str] = "vrt"
    weight_proportional: ClassVar[bool] = True
    supports_caps: ClassVar[bool] = False
    uses_credit_accounting: ClassVar[bool] = False

    #: Scheduling granularity: a runnable vCPU must lag the running one by
    #: at least this much weighted-vruntime before preempting it.
    GRANULARITY_NS = 2 * MS
    #: Maximum latency bonus a waking vCPU can carry.
    WAKE_BONUS_NS = 10 * MS
    #: Dispatch slice when nobody is waiting (bounds decision latency).
    MAX_SLICE_NS = 30 * MS

    def __init__(self, machine: "Machine"):
        super().__init__(machine)
        #: Runnable vCPUs not currently on a pCPU, ordered lazily.
        self.waiting: list[VCPU] = []
        #: Weighted virtual runtimes (ns of weighted CPU), per vCPU.
        self.vruntime: dict[VCPU, float] = {}
        self._min_vruntime = 0.0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        self.sim.schedule(self.config.tick_ns, self._tick)

    # ------------------------------------------------------------------
    # Weight plumbing
    # ------------------------------------------------------------------
    def _effective_weight(self, vcpu: VCPU) -> float:
        """Per-VM weight split across the domain's active vCPUs."""
        domain = vcpu.domain
        active = max(1, len(domain.active_vcpus()))
        if self.config.per_vm_weight:
            return domain.weight / active
        return float(domain.weight)

    def _advance_min(self) -> None:
        candidates = [self.vruntime.get(v, 0.0) for v in self.waiting]
        for pcpu in self.machine.pool:
            if pcpu.current is not None:
                candidates.append(self.vruntime.get(pcpu.current, 0.0))
        if candidates:
            self._min_vruntime = max(self._min_vruntime, min(candidates))

    # ------------------------------------------------------------------
    # Entry points (same surface as CreditScheduler)
    # ------------------------------------------------------------------
    def vcpu_wake(self, vcpu: VCPU) -> None:
        if vcpu.state is not VCPUState.BLOCKED:
            return
        now = self.sim.now
        vcpu.set_state(VCPUState.RUNNABLE, now)
        floor = self._min_vruntime - self.WAKE_BONUS_NS
        self.vruntime[vcpu] = max(self.vruntime.get(vcpu, floor), floor)
        vcpu.priority = Priority.UNDER
        self.waiting.append(vcpu)
        self._tickle(vcpu)

    def vcpu_block(self, vcpu: VCPU) -> None:
        now = self.sim.now
        target = VCPUState.BLOCKED
        if vcpu.freeze_pending:
            target = VCPUState.FROZEN
            vcpu.freeze_pending = False
        if vcpu.state is VCPUState.RUNNING:
            pcpu = vcpu.pcpu
            self._stop_running(vcpu)
            vcpu.set_state(target, now)
            self.machine.request_reschedule(pcpu)
        elif vcpu.state is VCPUState.RUNNABLE:
            if vcpu in self.waiting:
                self.waiting.remove(vcpu)
            vcpu.set_state(target, now)
        elif vcpu.state is VCPUState.BLOCKED and target is VCPUState.FROZEN:
            vcpu.set_state(target, now)

    def vcpu_unfreeze(self, vcpu: VCPU) -> None:
        vcpu.freeze_pending = False
        if vcpu.state is not VCPUState.FROZEN:
            return
        vcpu.set_state(VCPUState.BLOCKED, self.sim.now)

    def vcpu_yield(self, vcpu: VCPU) -> None:
        if vcpu.state is not VCPUState.RUNNING:
            return
        pcpu = vcpu.pcpu
        self._stop_running(vcpu)
        vcpu.set_state(VCPUState.RUNNABLE, self.sim.now)
        # A yielding vCPU steps behind its peers by one granularity.
        self.vruntime[vcpu] = self.vruntime.get(vcpu, 0.0) + self.GRANULARITY_NS
        self.waiting.append(vcpu)
        self.machine.request_reschedule(pcpu)

    def tickle_vcpu(self, vcpu: VCPU) -> None:
        """Expedite a vCPU with a pending reconfiguration IPI."""
        if vcpu.state is not VCPUState.RUNNABLE:
            return
        self.vruntime[vcpu] = self._min_vruntime - self.WAKE_BONUS_NS
        self._tickle(vcpu)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def schedule(self, pcpu: "PCPU") -> None:
        now = self.sim.now
        current = pcpu.current
        if current is not None:
            self._stop_running(current)
            current.set_state(VCPUState.RUNNABLE, now)
            self.waiting.append(current)

        candidate = self._pick()
        if candidate is None:
            pcpu.set_idle(now)
            return
        self.waiting.remove(candidate)
        self._start_running(pcpu, candidate)

    def _pick(self) -> VCPU | None:
        if not self.waiting:
            return None
        return min(
            self.waiting,
            key=lambda v: (self.vruntime.get(v, 0.0), v.domain.name, v.index),
        )

    def _tickle(self, vcpu: VCPU) -> None:
        """Place a newly runnable vCPU: idle pCPU first, else preempt the
        pCPU whose current has the largest vruntime surplus."""
        for pcpu in self.machine.pool:
            if pcpu.current is None:
                self.machine.request_reschedule(pcpu)
                return
        new_vrt = self.vruntime.get(vcpu, 0.0)
        victim: "PCPU | None" = None
        worst_surplus = float(self.GRANULARITY_NS)
        for pcpu in self.machine.pool:
            current = pcpu.current
            assert current is not None
            surplus = self.vruntime.get(current, 0.0) - new_vrt
            if surplus > worst_surplus:
                worst_surplus = surplus
                victim = pcpu
        if victim is None:
            return
        started = victim.current.run_started_at
        ratelimit = self.config.ratelimit_ns
        if started is not None and self.sim.now - started < ratelimit:
            self.sim.schedule(
                started + ratelimit - self.sim.now,
                self._ratelimit_expired,
                victim,
                victim.current,
            )
        else:
            self.machine.request_reschedule(victim)

    def _ratelimit_expired(self, pcpu: "PCPU", expected: VCPU) -> None:
        if pcpu.current is expected and self.waiting:
            self.machine.request_reschedule(pcpu)

    # ------------------------------------------------------------------
    # Run accounting
    # ------------------------------------------------------------------
    def _start_running(self, pcpu: "PCPU", vcpu: VCPU) -> None:
        now = self.sim.now
        vcpu.set_state(VCPUState.RUNNING, now)
        vcpu.pcpu = pcpu
        vcpu.last_pcpu = pcpu
        vcpu.run_started_at = now
        pcpu.set_current(vcpu, now)
        pcpu.arm_slice(self.MAX_SLICE_NS)
        self.machine.vcpu_context_entered(vcpu)

    def _stop_running(self, vcpu: VCPU) -> None:
        now = self.sim.now
        pcpu = vcpu.pcpu
        assert pcpu is not None and vcpu.run_started_at is not None
        elapsed = now - vcpu.run_started_at
        self._charge(vcpu, elapsed)
        self.machine.vcpu_context_left(vcpu)
        pcpu.clear_current(now)
        vcpu.pcpu = None
        vcpu.run_started_at = None

    def _charge(self, vcpu: VCPU, elapsed: int) -> None:
        if elapsed <= 0:
            return
        weight = self._effective_weight(vcpu)
        # Normalize so a weight-256 vCPU advances 1ns of vruntime per ns.
        self.vruntime[vcpu] = self.vruntime.get(vcpu, 0.0) + elapsed * 256.0 / weight
        self.charge_domain(vcpu, elapsed)
        self._advance_min()

    # ------------------------------------------------------------------
    # Tick: charge in-flight runtimes, preempt laggards, rescue waiters
    # ------------------------------------------------------------------
    def _tick(self) -> None:
        now = self.sim.now
        for pcpu in self.machine.pool:
            vcpu = pcpu.current
            if vcpu is None or vcpu.run_started_at is None:
                continue
            elapsed = now - vcpu.run_started_at
            if elapsed > 0:
                self._charge(vcpu, elapsed)
                vcpu.run_started_at = now
        if self.waiting:
            best = self._pick()
            assert best is not None
            best_vrt = self.vruntime.get(best, 0.0)
            for pcpu in self.machine.pool:
                if pcpu.current is None:
                    self.machine.request_reschedule(pcpu)
                elif (
                    self.vruntime.get(pcpu.current, 0.0)
                    > best_vrt + self.GRANULARITY_NS
                ):
                    self.machine.request_reschedule(pcpu)
        sanitizer = self.machine.sanitizer
        if sanitizer is not None:
            sanitizer.check_runqueues(self)
            sanitizer.check_machine(self.machine.domains)
        self.sim.schedule(self.config.tick_ns, self._tick)

    # ------------------------------------------------------------------
    def runnable_backlog(self) -> int:
        return len(self.waiting)

    def runqueues_view(self) -> Iterator[tuple[str, list[VCPU]]]:
        yield "pool", self.waiting

    def _state_extra(self) -> dict:
        return {
            "vruntime": {
                f"{v.domain.name}/{v.index}": vrt
                for v, vrt in sorted(
                    self.vruntime.items(),
                    key=lambda item: (item[0].domain.name, item[0].index),
                )
            },
            "min_vruntime": self._min_vruntime,
        }
