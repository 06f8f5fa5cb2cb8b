"""A CFS-style weight/vruntime scheduler with per-pCPU runqueues.

Linux-CFS idioms, distinct from :mod:`repro.hypervisor.schedulers.vrt`
(which keeps one global queue):

* each pCPU owns a runqueue with its own monotone ``min_vruntime``;
* a running vCPU's vruntime advances by ``elapsed * 256 / weight_eff``
  (per-VM weight split across active vCPUs, the paper's weight model);
* wake placement goes to the vCPU's cache-hot home queue, with the
  vruntime floored to ``min_vruntime - wake_bonus`` so sleepers get
  latency without banking unbounded credit;
* the dispatch slice shrinks as the local queue deepens (CFS's
  ``sched_period / nr_running``), floored at the scheduling granularity;
* an idle pCPU steals the most-lagging vCPU from the deepest peer queue.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, ClassVar

from repro.hypervisor.domain import VCPU
from repro.hypervisor.schedulers.base import PerPcpuQueueScheduler, register, vruntime_map
from repro.units import MS

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.hypervisor.machine import Machine, PCPU


@register
class CfsScheduler(PerPcpuQueueScheduler):
    """Per-pCPU weighted-vruntime scheduler (CFS-class)."""

    name: ClassVar[str] = "cfs"
    weight_proportional: ClassVar[bool] = True
    supports_caps: ClassVar[bool] = False
    uses_credit_accounting: ClassVar[bool] = False

    #: Minimum dispatch slice (CFS's sched_min_granularity).
    GRANULARITY_NS = 2 * MS
    #: Maximum latency bonus a waking vCPU can carry.
    WAKE_BONUS_NS = 10 * MS

    def __init__(self, machine: "Machine"):
        super().__init__(machine)
        #: Weighted virtual runtimes, per vCPU.
        self.vruntime: dict[VCPU, float] = {}
        #: Monotone per-queue floor new arrivals are clamped against.
        self.min_vruntime: dict["PCPU", float] = {
            pcpu: 0.0 for pcpu in machine.pool
        }

    # -- dispatch order (lowest vruntime first) --------------------------
    def _key(self, vcpu: VCPU) -> tuple[float, str, int]:
        return (self.vruntime.get(vcpu, 0.0), vcpu.domain.name, vcpu.index)

    def _best(self, queue: list[VCPU]) -> VCPU | None:
        if not queue:
            return None
        return min(queue, key=self._key)

    def _pick(self, pcpu: "PCPU") -> VCPU | None:
        candidate = self._best(self.queues[pcpu])
        if self.config.allow_stealing:
            # Cross-queue balance: steal a peer's waiter when it lags the
            # local candidate by more than one granularity (hysteresis
            # against ping-pong), or whenever the local queue is empty.
            # This is what keeps allocation weight-proportional globally —
            # per-queue fairness alone lets a lone vCPU camp on its pCPU.
            for queue in self.queues.values():
                best = self._best(queue)
                if best is None:
                    continue
                if candidate is None or (
                    self.vruntime.get(best, 0.0) + self.GRANULARITY_NS
                    < self.vruntime.get(candidate, 0.0)
                ):
                    candidate = best
        return candidate

    # -- accounting ------------------------------------------------------
    def _charge(self, vcpu: VCPU, elapsed: int) -> None:
        if elapsed <= 0:
            return
        # Normalize so a weight-256 vCPU advances 1ns of vruntime per ns.
        self.vruntime[vcpu] = (
            self.vruntime.get(vcpu, 0.0) + elapsed * 256.0 / self._effective_weight(vcpu)
        )
        self.charge_domain(vcpu, elapsed)
        pcpu = vcpu.pcpu
        if pcpu is not None:
            candidates = [self.vruntime[vcpu]]
            candidates.extend(self.vruntime.get(v, 0.0) for v in self.queues[pcpu])
            self.min_vruntime[pcpu] = max(self.min_vruntime[pcpu], min(candidates))

    def _on_wake(self, vcpu: VCPU) -> None:
        floor = self.min_vruntime[self._home(vcpu)] - self.WAKE_BONUS_NS
        self.vruntime[vcpu] = max(self.vruntime.get(vcpu, floor), floor)

    def _on_tickle(self, vcpu: VCPU) -> None:
        # Put the tickled vCPU at the front of its queue's vruntime order.
        self.vruntime[vcpu] = self.min_vruntime[self._home(vcpu)] - self.WAKE_BONUS_NS

    def _on_frozen(self, vcpu: VCPU) -> None:
        self.vruntime.pop(vcpu, None)

    def _slice_ns(self, pcpu: "PCPU", vcpu: VCPU) -> int:
        contenders = len(self.queues[pcpu]) + 1
        return max(self.GRANULARITY_NS, self.config.timeslice_ns // contenders)

    def _tick_policy(self) -> None:
        # Preempt a runner that overran the pool's best waiter by more
        # than one granularity (global, so lone runners get balanced too).
        best: VCPU | None = None
        for queue in self.queues.values():
            head = self._best(queue)
            if head is not None and (best is None or self._key(head) < self._key(best)):
                best = head
        if best is None:
            return
        best_vrt = self.vruntime.get(best, 0.0)
        for pcpu in self.machine.pool:
            current = pcpu.current
            if current is None:
                continue
            if self.vruntime.get(current, 0.0) > best_vrt + self.GRANULARITY_NS:
                self.machine.request_reschedule(pcpu)

    def _state_extra(self) -> dict:
        return {
            "vruntime": vruntime_map(self.vruntime),
            "min_vruntime": {
                pcpu.name: vrt for pcpu, vrt in self.min_vruntime.items()
            },
        }
