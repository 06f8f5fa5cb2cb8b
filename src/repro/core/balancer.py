"""Algorithm 2: the vScale balancer — microsecond vCPU (un)freezing.

The balancer is the guest-kernel half of vScale.  Freezing vCPU ``k``
performs, *on the master vCPU (vCPU0)*, in this exact order:

1. set bit ``k`` of ``cpu_freeze_mask`` (stops push balancing towards it);
2. update the scheduling domain/group power that included vCPU ``k``;
3. hypercall ``SCHEDOP_freezecpu`` so vCPU ``k`` stops earning credits;
4. send a reschedule IPI to vCPU ``k`` to trigger its scheduler function.

The target vCPU then (a) migrates all migratable threads away, (b) stops
pulling tasks, and (c) redirects I/O interrupts — after which it idles and
the hypervisor parks it in the FROZEN state.  The split keeps the master's
cost at ~2.1 us (Table 3) because it never blocks on the migration.

Unfreezing runs the mirrored order and ends with a ``wake_up_idle_cpu``
kick so the target immediately pulls work from its siblings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.faults.errors import FreezeFailure
from repro.hypervisor.irq import IRQClass
from repro.metrics.collectors import LatencyReservoir
from repro.sim.rng import jittered_sum

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.guest.kernel import GuestKernel


@dataclass(frozen=True)
class BalancerCosts:
    """Master-vCPU step costs, in nanoseconds (Table 3's breakdown)."""

    syscall_ns: int = 690          # (1) sys_freezecpu entry
    lock_ns: int = 60              # (2) cpu_freeze_lock +irq save/restore
    mask_ns: int = 30              # (3) flip cpu_freeze_mask bit
    group_power_ns: int = 120      # (4) update sched domain/group power
    hypercall_ns: int = 220        # (5) SCHEDOP_freezecpu
    ipi_send_ns: int = 980         # (6) send the reschedule IPI

    def __post_init__(self) -> None:
        for name in (
            "syscall_ns",
            "lock_ns",
            "mask_ns",
            "group_power_ns",
            "hypercall_ns",
            "ipi_send_ns",
        ):
            value = getattr(self, name)
            if value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")

    @property
    def total_ns(self) -> int:
        return (
            self.syscall_ns
            + self.lock_ns
            + self.mask_ns
            + self.group_power_ns
            + self.hypercall_ns
            + self.ipi_send_ns
        )

    def cumulative(self) -> list[tuple[str, int, int]]:
        """(step label, step cost, running total) rows for Table 3."""
        steps = [
            ("(1) System call (sys_freezecpu)", self.syscall_ns),
            ("(2) Acquire and release cpu_freeze_lock", self.lock_ns),
            ("(3) Change cpu_freeze_mask", self.mask_ns),
            ("(4) Update the power of sched domains/groups", self.group_power_ns),
            ("(5) Notify the hypervisor via hypercall", self.hypercall_ns),
            ("(6) Send a reschedule IPI", self.ipi_send_ns),
        ]
        rows = []
        running = 0
        for label, cost in steps:
            running += cost
            rows.append((label, cost, running))
        return rows


@dataclass
class FreezeReport:
    """What one freeze/unfreeze operation cost and did."""

    vcpu: int
    freeze: bool
    master_cost_ns: int
    threads_to_migrate: int


class VScaleBalancer:
    """The kernel module exposing sys_freezecpu / sys_unfreezecpu."""

    def __init__(
        self,
        kernel: "GuestKernel",
        costs: BalancerCosts | None = None,
        rng: np.random.Generator | None = None,
    ):
        self.kernel = kernel
        self.costs = costs or BalancerCosts()
        self.rng = rng or kernel.machine.seeds.stream(
            f"balancer.{kernel.domain.name}", "normal"
        )
        self.master_latency = LatencyReservoir()
        self.freezes = 0
        self.unfreezes = 0
        #: Injected transient syscall failures (fault experiments only).
        self.failed_ops = 0

    # ------------------------------------------------------------------
    def freeze(self, index: int) -> FreezeReport:
        """sys_freezecpu(index): Algorithm 2, master side.

        Returns the report; the master's cost is charged to vCPU0's
        runqueue so the daemon actually spends the microseconds.
        """
        kernel = self.kernel
        if index == 0:
            raise ValueError("the master vCPU (vCPU0) cannot be frozen")
        if not 0 <= index < len(kernel.runqueues):
            raise ValueError(f"no vCPU {index}")
        if index in kernel.cpu_freeze_mask:
            raise ValueError(f"vCPU {index} already frozen")
        cost = self._master_cost()
        faults = kernel.machine.faults
        if faults is not None and faults.freeze_fault():
            # The syscall ran and failed before touching any state: the
            # master still paid for it.
            self._charge_master(cost)
            self.failed_ops += 1
            machine = kernel.machine
            machine.tracer.emit(
                machine.sim.now, "fault", "freeze_failed",
                kernel.domain.vcpus[index].name, op="freeze",
            )
            raise FreezeFailure("freeze", index, cost)
        vcpu = kernel.domain.vcpus[index]
        # (1)+(2) syscall + lock are pure cost; (3) flip the mask:
        kernel.cpu_freeze_mask.add(index)
        # (4) update scheduling group power: modelled as cost only — the
        # simulation's load metric derives from the mask directly.
        # (5) notify the hypervisor: stop crediting the target.
        kernel.machine.hyp_mark_freeze(vcpu)
        # (6) reschedule IPI so the target's scheduler migrates everything.
        kernel.run_in_context(
            0,
            lambda: kernel.machine.hyp_send_ipi(
                kernel.domain.vcpus[0], vcpu, IRQClass.RESCHED_IPI
            ),
        )
        kernel.ipi_sent[0].inc()
        # Paper §4.2: the hypervisor expedites vCPUs with pending
        # reconfiguration IPIs.
        kernel.machine.hyp_tickle_vcpu(vcpu)
        self._charge_master(cost)
        self.freezes += 1
        sanitizer = kernel.machine.sanitizer
        if sanitizer is not None:
            sanitizer.check_balancer_op(kernel, index, freeze=True)
        threads = len(kernel.runqueues[index].ready) + (
            1 if kernel.runqueues[index].current else 0
        )
        return FreezeReport(index, True, cost, threads)

    def unfreeze(self, index: int) -> FreezeReport:
        """sys_unfreezecpu(index): the mirrored sequence."""
        kernel = self.kernel
        if index not in kernel.cpu_freeze_mask:
            raise ValueError(f"vCPU {index} is not frozen")
        cost = self._master_cost()
        faults = kernel.machine.faults
        if faults is not None and faults.freeze_fault():
            self._charge_master(cost)
            self.failed_ops += 1
            machine = kernel.machine
            machine.tracer.emit(
                machine.sim.now, "fault", "freeze_failed",
                kernel.domain.vcpus[index].name, op="unfreeze",
            )
            raise FreezeFailure("unfreeze", index, cost)
        vcpu = kernel.domain.vcpus[index]
        kernel.cpu_freeze_mask.discard(index)
        kernel.machine.hyp_unfreeze_vcpu(vcpu)
        # wake_up_idle_cpu(): the target pulls threads via idle balance as
        # soon as it runs; the RESCHED IPI rides the wake above.
        kernel.run_in_context(
            0,
            lambda: kernel.machine.hyp_send_ipi(
                kernel.domain.vcpus[0], vcpu, IRQClass.RESCHED_IPI
            ),
        )
        kernel.ipi_sent[0].inc()
        self._charge_master(cost)
        self.unfreezes += 1
        sanitizer = kernel.machine.sanitizer
        if sanitizer is not None:
            sanitizer.check_balancer_op(kernel, index, freeze=False)
        return FreezeReport(index, False, cost, 0)

    # ------------------------------------------------------------------
    def _master_cost(self) -> int:
        cost = jittered_sum(
            self.rng,
            (
                (self.costs.syscall_ns, 0.05),
                (self.costs.lock_ns, 0.10),
                (self.costs.mask_ns, 0.10),
                (self.costs.group_power_ns, 0.10),
                (self.costs.hypercall_ns, 0.08),
                (self.costs.ipi_send_ns, 0.05),
            ),
        )
        self.master_latency.record(cost)
        return cost

    def _charge_master(self, cost: int) -> None:
        self.kernel.runqueues[0].pending_overhead_ns += cost

    def measure_master_breakdown(self, iterations: int) -> list[tuple[str, float, float]]:
        """Monte-Carlo the Table 3 rows: (label, mean step us, cumulative us)."""
        if iterations < 1:
            raise ValueError("need at least one iteration")
        labels = [row[0] for row in self.costs.cumulative()]
        means = []
        for label, mean in zip(
            labels,
            (
                self.costs.syscall_ns,
                self.costs.lock_ns,
                self.costs.mask_ns,
                self.costs.group_power_ns,
                self.costs.hypercall_ns,
                self.costs.ipi_send_ns,
            ),
        ):
            samples = self.rng.normal(mean, mean * 0.08, size=iterations)
            means.append((label, float(np.mean(samples))))
        rows = []
        running = 0.0
        for label, mean in means:
            running += mean
            rows.append((label, mean / 1000.0, running / 1000.0))
        return rows
