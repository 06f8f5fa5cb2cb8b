"""A Credit2-style scheduler: per-pCPU runqueues with global credit reset.

Models the behaviourally relevant core of Xen's csched2 as it differs
from csched (see :mod:`repro.hypervisor.schedulers.credit`):

* no periodic accounting — each vCPU's balance drains while it runs, at a
  rate *inversely proportional* to its effective weight (per-VM weight
  split across the domain's active vCPUs, like the paper's patch), so a
  heavy vCPU's credit lasts longer and CPU time converges to weight
  proportions;
* per-pCPU runqueues ordered by credit (highest runs first, FIFO within
  ties), with idle stealing from the deepest peer queue;
* a **global credit reset** instead of a refill tick: when the best
  runnable candidate's balance has hit zero, everyone still in the race
  is topped back up to ``CREDIT_INIT`` (debt is carried, clamped), which
  is what keeps long-run allocation proportional without an accounting
  period.

Freezing a vCPU surrenders its balance immediately (``_on_frozen``), the
same contract the paper's csched patch establishes — siblings benefit
without waiting for a refill.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, ClassVar

from repro.hypervisor.domain import VCPU
from repro.hypervisor.schedulers.base import PerPcpuQueueScheduler, register

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.hypervisor.machine import Machine, PCPU


@register
class Credit2Scheduler(PerPcpuQueueScheduler):
    """Per-pCPU credit queues with weight-scaled burn and global reset."""

    name: ClassVar[str] = "credit2"
    weight_proportional: ClassVar[bool] = True
    supports_caps: ClassVar[bool] = False
    uses_credit_accounting: ClassVar[bool] = False

    def __init__(self, machine: "Machine"):
        super().__init__(machine)
        #: Balance granted at each global reset, in ns of reference-weight
        #: CPU time (one accounting period's worth keeps slices long).
        self.credit_init = self.config.acct_ns

    # -- dispatch order (highest credit first) ---------------------------
    def _best(self, queue: list[VCPU]) -> VCPU | None:
        if not queue:
            return None
        # max() keeps the first maximal element: FIFO within credit ties.
        return max(queue, key=lambda v: v.credits)

    def _pick(self, pcpu: "PCPU") -> VCPU | None:
        candidate = self._best(self.queues[pcpu])
        if self.config.allow_stealing:
            # Global dispatch order: take the highest-credit contender in
            # the pool (the local head wins ties).  Per-pCPU queues keep
            # wake placement cheap; stealing at every dispatch is what
            # keeps allocation weight-proportional across queues — a lone
            # vCPU cannot camp on its pCPU past its share.
            for queue in self.queues.values():
                best = self._best(queue)
                if best is None:
                    continue
                if candidate is None or best.credits > candidate.credits:
                    candidate = best
        if candidate is not None and candidate.credits <= 0:
            self._reset_credit()
        return candidate

    def _reset_credit(self) -> None:
        """Global reset: top every contender back up by ``credit_init``.

        The carry-over (surplus or debt) is clamped to one reset's worth
        and preserved: a heavy vCPU whose slow burn left it with credit
        when its competitors drained keeps that relative advantage into
        the next epoch — discarding it would flatten allocation towards
        equal shares whenever a reset fires early on a multi-pCPU pool.
        """
        init = float(self.credit_init)
        contenders = [vcpu for queue in self.queues.values() for vcpu in queue]
        for pcpu in self.machine.pool:
            if pcpu.current is not None:
                contenders.append(pcpu.current)
        self.accounting_batch(contenders, 0.0, -init, init, shift=init)

    # -- accounting ------------------------------------------------------
    def _charge(self, vcpu: VCPU, elapsed: int) -> None:
        if elapsed <= 0:
            return
        # Burn normalized so a reference-weight (256) vCPU drains 1ns/ns.
        vcpu.credits -= elapsed * 256.0 / self._effective_weight(vcpu)
        self.charge_domain(vcpu, elapsed)

    def _on_wake(self, vcpu: VCPU) -> None:
        # A sleeper's stale balance must not let it monopolize on wake:
        # clamp to one reset's worth, like the reset does.
        vcpu.credits = min(vcpu.credits, float(self.credit_init))

    def _on_tickle(self, vcpu: VCPU) -> None:
        # Jump the credit order so the reconfiguration IPI lands promptly.
        vcpu.credits = float(self.credit_init)

    def _on_frozen(self, vcpu: VCPU) -> None:
        vcpu.credits = 0.0

    def _tick_policy(self) -> None:
        # Preempt a drained runner when any queued contender still has
        # credit — bounds how stale the credit order can get mid-slice.
        best: VCPU | None = None
        for queue in self.queues.values():
            head = self._best(queue)
            if head is not None and (best is None or head.credits > best.credits):
                best = head
        if best is None or best.credits <= 0:
            return
        for pcpu in self.machine.pool:
            current = pcpu.current
            if current is not None and current.credits <= 0:
                self.machine.request_reschedule(pcpu)

    def _state_extra(self) -> dict:
        # Balances live on the vCPUs (captured with domain state); the
        # only policy-private knob is the reset grant.
        return {"credit_init": self.credit_init}
