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
* a yielding vCPU steps one granularity behind its peers;
* preemption when the running vCPU's vruntime exceeds the best waiter's
  by more than the scheduling granularity, still honoring the rate limit.

The vCPU state machine is :class:`QueueScheduler`'s, over the pool-wide
list of :class:`PoolQueueScheduler`; this module supplies only the policy
hooks.  The vScale extension is scheduler-agnostic (it reads per-domain
consumption from :class:`repro.hypervisor.domain.Domain`), so freezing,
extendability and the daemon all work unchanged on top of this scheduler —
`benchmarks/test_generality.py` demonstrates it end to end.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, ClassVar

from repro.hypervisor.domain import Priority, VCPU
from repro.hypervisor.schedulers.base import PoolQueueScheduler, register, vruntime_map
from repro.units import MS

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.hypervisor.machine import Machine, PCPU


@register
class VrtScheduler(PoolQueueScheduler):
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
        #: Weighted virtual runtimes (ns of weighted CPU), per vCPU.
        self.vruntime: dict[VCPU, float] = {}
        self._min_vruntime = 0.0

    def _advance_min(self) -> None:
        candidates = [self.vruntime.get(v, 0.0) for v in self.queue]
        for pcpu in self.machine.pool:
            if pcpu.current is not None:
                candidates.append(self.vruntime.get(pcpu.current, 0.0))
        if candidates:
            self._min_vruntime = max(self._min_vruntime, min(candidates))

    # -- policy hooks ----------------------------------------------------
    def _on_wake(self, vcpu: VCPU) -> None:
        floor = self._min_vruntime - self.WAKE_BONUS_NS
        self.vruntime[vcpu] = max(self.vruntime.get(vcpu, floor), floor)
        vcpu.priority = Priority.UNDER

    def _on_tickle(self, vcpu: VCPU) -> None:
        self.vruntime[vcpu] = self._min_vruntime - self.WAKE_BONUS_NS

    def _on_yield(self, vcpu: VCPU) -> None:
        # A yielding vCPU steps behind its peers by one granularity.
        self.vruntime[vcpu] = self.vruntime.get(vcpu, 0.0) + self.GRANULARITY_NS

    def _slice_ns(self, pcpu: "PCPU", vcpu: VCPU) -> int:
        return self.MAX_SLICE_NS

    def _key(self, vcpu: VCPU) -> tuple[float, str, int]:
        return (self.vruntime.get(vcpu, 0.0), vcpu.domain.name, vcpu.index)

    def _pick(self, pcpu: "PCPU") -> VCPU | None:
        return min(self.queue, key=self._key) if self.queue else None

    def _wake_preempt(self, vcpu: VCPU) -> None:
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
        if pcpu.current is expected and self.queue:
            self.machine.request_reschedule(pcpu)

    def _charge(self, vcpu: VCPU, elapsed: int) -> None:
        if elapsed <= 0:
            return
        weight = self._effective_weight(vcpu)
        # Normalize so a weight-256 vCPU advances 1ns of vruntime per ns.
        self.vruntime[vcpu] = self.vruntime.get(vcpu, 0.0) + elapsed * 256.0 / weight
        self.charge_domain(vcpu, elapsed)
        self._advance_min()

    def _tick_policy(self) -> None:
        # Rescue idle pCPUs and preempt laggards in one pass, in pool
        # order: each request schedules one event, so this order is the
        # dispatch order.
        if not self.queue:
            return
        limit = self.vruntime.get(min(self.queue, key=self._key), 0.0) + self.GRANULARITY_NS
        for pcpu in self.machine.pool:
            current = pcpu.current
            if current is None or self.vruntime.get(current, 0.0) > limit:
                self.machine.request_reschedule(pcpu)

    def _state_extra(self) -> dict:
        return {"vruntime": vruntime_map(self.vruntime), "min_vruntime": self._min_vruntime}
