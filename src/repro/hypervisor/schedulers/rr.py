"""A plain round-robin scheduler: one global FIFO, fixed quantum.

The control group of the generality grid.  It ignores weights and caps
entirely — every runnable vCPU gets the same quantum in arrival order —
so it is deliberately *not* proportional-share.  vScale's Algorithm 1
computes extendability from the pool's slack and the domains' weights,
independent of how the host scheduler actually multiplexes, so the
``n_i = ceil(s_ext/t)`` policy must still hold here; what is lost is only
the weight-proportional allocation the other schedulers provide (the
conformance suite skips that property via ``weight_proportional=False``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, ClassVar

from repro.hypervisor.domain import VCPU
from repro.hypervisor.schedulers.base import PoolQueueScheduler, register

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.hypervisor.machine import Machine, PCPU


@register
class RoundRobinScheduler(PoolQueueScheduler):
    """Global-FIFO round-robin with a fixed time slice."""

    name: ClassVar[str] = "rr"
    weight_proportional: ClassVar[bool] = False
    supports_caps: ClassVar[bool] = False
    uses_credit_accounting: ClassVar[bool] = False

    def __init__(self, machine: "Machine"):
        super().__init__(machine)
        self._tickled = False

    # -- primitive hooks -------------------------------------------------
    def _enqueue(self, vcpu: VCPU) -> None:
        if self._tickled:
            # A reconfiguration-IPI tickle jumps the queue (paper §4.2).
            self.queue.insert(0, vcpu)
        else:
            self.queue.append(vcpu)

    def _pick(self, pcpu: "PCPU") -> VCPU | None:
        return self.queue[0] if self.queue else None

    def _charge(self, vcpu: VCPU, elapsed: int) -> None:
        if elapsed <= 0:
            return
        self.charge_domain(vcpu, elapsed)

    def _on_tickle(self, vcpu: VCPU) -> None:
        self._tickled = True

    def _admit(self, vcpu: VCPU) -> None:
        try:
            super()._admit(vcpu)
        finally:
            self._tickled = False

    def _state_extra(self) -> dict:
        return {"tickled": self._tickled}
