"""Baseline vCPU-scaling managers the paper compares against.

Vanilla Xen/Linux, which keeps every provisioned vCPU online, needs no
manager at all.

* :class:`VCPUBalManager` — VCPU-Bal (Song et al., APSys'13): the same idea
  as vScale but (a) the target count considers only VM *weights*, not
  consumption (not work-conserving), (b) monitoring is centralized in dom0
  via libxl (hundreds of microseconds to milliseconds per poll, growing
  with the number of VMs), and (c) reconfiguration uses Linux CPU hotplug
  (milliseconds to 100+ ms).
* :class:`HotplugScaler` — an ablation hybrid: vScale's extendability
  policy, but Linux hotplug as the mechanism.  Isolates how much of
  vScale's win comes from the mechanism's speed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.daemon import MIN_VCPUS
from repro.faults.errors import ChannelReadError
from repro.guest.actions import BlockOn, Compute, SpinFlag
from repro.guest.hotplug import HotplugMechanism, HotplugModel
from repro.units import MS

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.guest.kernel import GuestKernel
    from repro.hypervisor.dom0 import Dom0Toolstack
    from repro.hypervisor.machine import Machine


#: dom0's VCPU-Bal polling period.  VCPU-Bal polls coarsely because each
#: poll walks every domain through libxl.
VCPUBAL_PERIOD_NS = 100 * MS
#: The hotplug scaler's polling period: vScale's daemon period.
HOTPLUG_PERIOD_NS = 10 * MS


class VCPUBalManager:
    """Centralized weight-only scaling through dom0 + CPU hotplug.

    The manager "runs in dom0": its polling latency is charged against the
    dom0 toolstack model, and its decisions reach the guest via the real
    XenStore/XenBus path — an availability-key write, the guest driver's
    watch upcall, and finally the hotplug operation.
    """

    def __init__(
        self,
        kernel: "GuestKernel",
        dom0: "Dom0Toolstack",
        hotplug_model: HotplugModel,
    ):
        from repro.guest.hotplug import XenBusCpuDriver

        self.kernel = kernel
        self.dom0 = dom0
        self.mechanism = HotplugMechanism(kernel, hotplug_model)
        #: The machine-wide store: decisions ride the same XenStore/XenBus
        #: bus every other component (and the machine-state observer) sees.
        self.store = kernel.machine.xenstore
        self.driver = XenBusCpuDriver(kernel, self.store, self.mechanism)
        self.reconfigurations = 0
        self._installed = False
        #: True while a dom0 balancer outage has this manager degraded to
        #: naive per-domain decisions.
        self._degraded = False
        self.trace: list[tuple[int, int]] = []

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("manager already installed")
        self._installed = True
        self.kernel.sim.schedule(VCPUBAL_PERIOD_NS, self._poll)

    def _poll(self) -> None:
        machine = self.kernel.machine
        faults = machine.faults
        now = self.kernel.sim.now
        if faults is not None and faults.balancer_outage(now, VCPUBAL_PERIOD_NS):
            # Crash-stop outage of the centralized dom0 balancer: the
            # global sweep is unreachable, so degrade to a naive local
            # decision and keep polling for the service to come back.
            if not self._degraded:
                self._degraded = True
                machine.tracer.emit(
                    now, "fault", "balancer_outage", self.kernel.domain.name
                )
            self._naive_decide()
            self.kernel.sim.schedule(VCPUBAL_PERIOD_NS, self._poll)
            return
        if self._degraded:
            # Explicit re-sync: the first healthy poll after an outage
            # runs the full centralized sweep from fresh dom0 data.
            self._degraded = False
            if faults is not None:
                faults.recovery.balancer_resyncs += 1
            machine.tracer.emit(
                now, "vscale", "balancer_resync", self.kernel.domain.name
            )
        # Centralized monitoring: dom0 reads every VM's consumption.  The
        # sampled latency delays the decision (and grows with #VMs).
        latency = self.dom0.sample_read_all_ns(len(machine.domains))
        self.kernel.sim.schedule(latency, self._decide)

    def _naive_decide(self) -> None:
        """Degraded fallback while dom0 is down: without pool-wide data
        the safe per-domain move is availability — bring the lowest frozen
        vCPU back online; never freeze blind."""
        from repro.hypervisor.xenstore import availability_path

        faults = self.kernel.machine.faults
        if faults is not None:
            faults.recovery.naive_fallback_decisions += 1
        frozen = sorted(self.kernel.cpu_freeze_mask)
        if frozen and not self.mechanism.busy:
            self.store.write(
                availability_path(self.kernel.domain.name, frozen[0]), "online"
            )
            self.reconfigurations += 1
            self.trace.append((self.kernel.sim.now, self.kernel.online_vcpus))

    def _decide(self) -> None:
        from repro.hypervisor.xenstore import availability_path

        machine = self.kernel.machine
        target = self._weight_only_target(machine)
        online = self.kernel.online_vcpus
        if target != online and not self.mechanism.busy:
            name = self.kernel.domain.name
            if target < online:
                candidates = [
                    i
                    for i in range(len(self.kernel.runqueues))
                    if i not in self.kernel.cpu_freeze_mask and i != 0
                ]
                if candidates:
                    self.store.write(
                        availability_path(name, max(candidates)), "offline"
                    )
                    self.reconfigurations += 1
            else:
                frozen = sorted(self.kernel.cpu_freeze_mask)
                if frozen:
                    self.store.write(availability_path(name, frozen[0]), "online")
                    self.reconfigurations += 1
            self.trace.append((self.kernel.sim.now, self.kernel.online_vcpus))
        self.kernel.sim.schedule(VCPUBAL_PERIOD_NS, self._poll)

    def _weight_only_target(self, machine: "Machine") -> int:
        """VCPU-Bal's target: the VM's weight share of the pool, ignoring
        what co-located VMs actually consume."""
        domain = self.kernel.domain
        total_weight = sum(d.weight for d in machine.domains)
        share = domain.weight / total_weight * machine.config.pcpus
        import math

        target = max(MIN_VCPUS, math.ceil(share - 1e-9))
        return min(target, len(domain.vcpus))


class HotplugScaler:
    """vScale's policy with Linux hotplug as the mechanism (ablation).

    Runs as an in-guest daemon thread like vScale's, but each
    reconfiguration pays the sampled hotplug latency and the stop_machine
    stall.
    """

    def __init__(
        self,
        kernel: "GuestKernel",
        hotplug_model: HotplugModel,
    ):
        from repro.core.channel import VScaleChannel

        self.kernel = kernel
        self.channel = VScaleChannel(kernel.domain)
        self.mechanism = HotplugMechanism(kernel, hotplug_model)
        self.reconfigurations = 0
        self.read_failures = 0
        self.thread = None

    def install(self):
        if self.thread is not None:
            raise RuntimeError("scaler already installed")
        self.thread = self.kernel.spawn(
            self._behavior(), name="hotplug-scaled", rt=True, pinned_to=0
        )
        return self.thread

    def _behavior(self):
        kernel = self.kernel
        while True:
            timer = SpinFlag("hotplugd.timer")
            kernel.start_timer(HOTPLUG_PERIOD_NS, timer)
            yield BlockOn(timer)
            if self.mechanism.busy:
                continue
            try:
                _ext, n_opt, cost = self.channel.read()
            except ChannelReadError as exc:
                # Naive handling (no retry): skip the period entirely.
                self.read_failures += 1
                yield Compute(exc.cost_ns)
                continue
            yield Compute(cost)
            total = len(kernel.runqueues)
            target = max(MIN_VCPUS, min(n_opt, total))
            online = kernel.online_vcpus
            if target < online:
                candidates = [
                    i
                    for i in range(total)
                    if i not in kernel.cpu_freeze_mask and i != 0
                ]
                if candidates:
                    self.mechanism.remove_vcpu(max(candidates))
                    self.reconfigurations += 1
            elif target > online and kernel.cpu_freeze_mask:
                self.mechanism.add_vcpu(min(kernel.cpu_freeze_mask))
                self.reconfigurations += 1
