"""Linux CPU hotplug: the heavyweight baseline vScale replaces.

The paper measures add/remove latencies of Linux's CPU hotplug across four
kernel versions (Figure 5): removal ranges from a few milliseconds to over
100 ms, and addition is 350–500 µs at best (3.14.15) but tens of
milliseconds on the other kernels.  We cannot run those kernels, so this
module models hotplug as the sum of its published phases:

* **notifier chains** — every subsystem's CPU_UP/DOWN callbacks, a long
  sequential chain whose cost grew with kernel size;
* **stop_machine()** — the global "halt all CPUs with interrupts disabled"
  rendezvous used on removal, whose cost depends on system size and has a
  heavy tail (it must interrupt-synchronize every online CPU);
* **kthread park/unpark and teardown** — creating/parking the per-CPU
  servants;
* **XenStore/XenBus round trip** — dom0 writes the availability bit and the
  guest's callback reacts, adding milliseconds before the kernel even
  starts.

Per-version parameters are fitted so the sampled CDFs reproduce the
figure's ordering and ranges.  The same model doubles as a *mechanism* for
end-to-end ablations: :class:`HotplugMechanism` performs a (dis)connect
with the sampled latency and, for removals, a stop_machine-style stall of
the whole guest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.units import MS, US

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.guest.kernel import GuestKernel


@dataclass(frozen=True)
class HotplugPhases:
    """Latency parameters (lognormal mean/sigma pairs, ns) per direction."""

    #: (median_ns, sigma) of the notifier-chain + teardown cost on removal.
    down_notifiers: tuple[int, float]
    #: (median_ns, sigma) of stop_machine()'s rendezvous on removal.
    down_stop_machine: tuple[int, float]
    #: (median_ns, sigma) of the bring-up path on addition.
    up_bringup: tuple[int, float]
    #: Fixed floor: XenBus watch + trap overheads, ns.
    bus_floor: int


#: Fitted per-version parameters.  Medians/sigmas chosen so that sampled
#: distributions land in the ranges reported in Figure 5: v3.14.15 has the
#: fast (sub-ms) up path; 2.6.32 is the slowest overall; everything has a
#: multi-10-ms removal tail.
KERNEL_VERSIONS: dict[str, HotplugPhases] = {
    "v2.6.32": HotplugPhases(
        down_notifiers=(30 * MS, 0.55),
        down_stop_machine=(25 * MS, 0.70),
        up_bringup=(40 * MS, 0.45),
        bus_floor=2 * MS,
    ),
    "v3.2.60": HotplugPhases(
        down_notifiers=(18 * MS, 0.50),
        down_stop_machine=(18 * MS, 0.65),
        up_bringup=(22 * MS, 0.45),
        bus_floor=2 * MS,
    ),
    "v3.14.15": HotplugPhases(
        down_notifiers=(8 * MS, 0.50),
        down_stop_machine=(10 * MS, 0.60),
        up_bringup=(260 * US, 0.35),
        bus_floor=280 * US,
    ),
    "v4.2": HotplugPhases(
        down_notifiers=(5 * MS, 0.45),
        down_stop_machine=(7 * MS, 0.60),
        up_bringup=(12 * MS, 0.40),
        bus_floor=1 * MS,
    ),
}


class HotplugModel:
    """Sample hotplug latencies for one kernel version."""

    def __init__(self, version: str, rng: np.random.Generator):
        if version not in KERNEL_VERSIONS:
            raise KeyError(
                f"unknown kernel {version!r}; choose from {sorted(KERNEL_VERSIONS)}"
            )
        self.version = version
        self.phases = KERNEL_VERSIONS[version]
        self.rng = rng

    def _lognormal(self, median_ns: int, sigma: float) -> int:
        return round(float(self.rng.lognormal(np.log(median_ns), sigma)))

    def sample_remove_ns(self) -> int:
        """Latency of taking one CPU offline (unhotplug)."""
        phases = self.phases
        return (
            phases.bus_floor
            + self._lognormal(*phases.down_notifiers)
            + self._lognormal(*phases.down_stop_machine)
        )

    def sample_add_ns(self) -> int:
        """Latency of bringing one CPU online (hotplug)."""
        phases = self.phases
        return phases.bus_floor + self._lognormal(*phases.up_bringup)

    def sample_stall_ns(self) -> int:
        """The stop_machine() portion alone: how long *every* online CPU is
        held with interrupts off during a removal."""
        return self._lognormal(*self.phases.down_stop_machine)


class HotplugMechanism:
    """Use CPU hotplug as the vCPU reconfiguration mechanism (ablation).

    Semantically equivalent to vScale's freeze/unfreeze, but each operation
    takes the sampled hotplug latency, and removal additionally stalls all
    of the guest's vCPUs for the stop_machine window (they keep their pCPUs
    but make no progress — we model the stall as an extra in-guest overhead
    charged to every runqueue).
    """

    def __init__(self, kernel: "GuestKernel", model: HotplugModel):
        self.kernel = kernel
        self.model = model
        self.operations = 0
        self.busy = False

    def remove_vcpu(self, index: int, on_done=None) -> int:
        """Start removing a vCPU; returns the sampled total latency (ns)."""
        if index == 0:
            raise ValueError("vCPU0 cannot be unplugged")
        if self.busy:
            raise RuntimeError("hotplug operation already in flight")
        kernel = self.kernel
        latency = self.model.sample_remove_ns()
        stall = self.model.sample_stall_ns()
        self.busy = True
        self.operations += 1
        # stop_machine: every vCPU burns `stall` doing nothing useful.
        for rq in kernel.runqueues:
            rq.pending_overhead_ns += stall
        kernel.cpu_freeze_mask.add(index)
        kernel.sim.schedule(latency, self._finish_remove, index, on_done)
        return latency

    def _finish_remove(self, index: int, on_done) -> None:
        kernel = self.kernel
        vcpu = kernel.domain.vcpus[index]
        kernel.machine.hyp_mark_freeze(vcpu)
        kernel.run_in_context(
            0,
            lambda: kernel.machine.hyp_send_ipi(
                kernel.domain.vcpus[0], vcpu, _resched_class()
            ),
        )
        kernel.machine.hyp_tickle_vcpu(vcpu)
        self.busy = False
        if on_done is not None:
            on_done()

    def add_vcpu(self, index: int, on_done=None) -> int:
        """Start re-adding a vCPU; returns the sampled total latency (ns)."""
        if self.busy:
            raise RuntimeError("hotplug operation already in flight")
        kernel = self.kernel
        latency = self.model.sample_add_ns()
        self.busy = True
        self.operations += 1
        kernel.sim.schedule(latency, self._finish_add, index, on_done)
        return latency

    def _finish_add(self, index: int, on_done) -> None:
        kernel = self.kernel
        kernel.cpu_freeze_mask.discard(index)
        kernel.machine.hyp_unfreeze_vcpu(kernel.domain.vcpus[index])
        self.busy = False
        if on_done is not None:
            on_done()


def _resched_class():
    from repro.hypervisor.irq import IRQClass

    return IRQClass.RESCHED_IPI


class XenBusCpuDriver:
    """The guest's XenBus CPU driver: watches the availability keys that
    dom0's toolstack writes and reacts by running CPU hotplug.

    This is the control path a dom0-centralized manager (VCPU-Bal, or
    plain ``xl vcpu-set``) must take; its latency — XenStore write, watch
    upcall, then the hotplug operation itself — is the 100x-100,000x
    overhead Figure 5 and Table 3 contrast with vScale's balancer.
    """

    def __init__(self, kernel: "GuestKernel", store, mechanism: HotplugMechanism):
        from repro.hypervisor.xenstore import availability_path

        self.kernel = kernel
        self.store = store
        self.mechanism = mechanism
        self.events: list[tuple[int, int, str]] = []
        self._path_of = {
            index: availability_path(kernel.domain.name, index)
            for index in range(len(kernel.runqueues))
        }
        prefix = f"/local/domain/{kernel.domain.name}/cpu"
        store.watch(prefix, self._on_change)
        #: Desired states queued while an operation is in flight.
        self._pending: dict[int, str] = {}

    def _index_for(self, path: str) -> int | None:
        for index, known in self._path_of.items():
            if path == known:
                return index
        return None

    def _on_change(self, path: str, value: str) -> None:
        index = self._index_for(path)
        if index is None or index == 0:
            return
        self.events.append((self.kernel.sim.now, index, value))
        self._pending[index] = value
        self._drain()

    def _drain(self) -> None:
        if self.mechanism.busy or not self._pending:
            return
        index, value = next(iter(self._pending.items()))
        del self._pending[index]
        online = index not in self.kernel.cpu_freeze_mask
        if value == "offline" and online:
            self.mechanism.remove_vcpu(index, on_done=self._drain)
        elif value == "online" and not online:
            self.mechanism.add_vcpu(index, on_done=self._drain)
        else:
            self._drain()
