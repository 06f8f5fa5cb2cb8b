"""Shared experiment scaffolding.

The application experiments (Figures 6-13) all use the paper's setup: a
worker SMP-VM under test, consolidated with "photo-slideshow" desktop VMs
at an average of two vCPUs per pCPU, with weights configured so every vCPU
is treated equally by the hypervisor, compared across four configurations:

* ``VANILLA``        — stock Xen/Linux;
* ``PVLOCK``         — stock + paravirtual spinlocks in the guest;
* ``VSCALE``         — vScale daemon + balancer + scheduler extension;
* ``VSCALE_PVLOCK``  — both.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.core.daemon import DaemonConfig, VScaleDaemon
from repro.faults import FaultPlan
from repro.guest.kernel import GuestConfig, GuestKernel
from repro.guest.sync import KernelSpinLock
from repro.hypervisor.config import HostConfig
from repro.hypervisor.domain import Domain
from repro.hypervisor.machine import Machine
from repro.recovery.watchdog import HangWatchdog
from repro.sim.rng import SeedSequenceFactory
from repro.units import MS, SEC
from repro.workloads.desktop import PhotoSlideshow, SlideshowConfig


class Config(enum.Enum):
    """The four compared configurations."""

    VANILLA = "Xen/Linux"
    PVLOCK = "Xen/Linux + pvlock"
    VSCALE = "vScale"
    VSCALE_PVLOCK = "vScale + pvlock"

    @property
    def uses_vscale(self) -> bool:
        return self in (Config.VSCALE, Config.VSCALE_PVLOCK)

    @property
    def uses_pvlock(self) -> bool:
        return self in (Config.PVLOCK, Config.VSCALE_PVLOCK)


ALL_CONFIGS = [Config.VANILLA, Config.VSCALE, Config.PVLOCK, Config.VSCALE_PVLOCK]

#: The paper's consolidation ratio: average vCPUs per pCPU, worker included.
CONSOLIDATION = 2.0


@dataclass
class Scenario:
    """A fully built host ready to run."""

    machine: Machine
    worker_domain: Domain
    worker_kernel: GuestKernel
    #: The shared futex-bucket/socket kernel lock of the worker guest.
    worker_kernel_lock: KernelSpinLock
    daemon: VScaleDaemon | None
    background: list[PhotoSlideshow] = field(default_factory=list)
    config: Config = Config.VANILLA
    #: Hang watchdog on the worker guest, when requested (chaos runs).
    watchdog: HangWatchdog | None = None

    def start(self) -> None:
        self.machine.start()

    def run(self, until_ns: int) -> None:
        self.machine.run(until=until_ns)


class ScenarioBuilder:
    """Builds the consolidated-host scenario of the application sections."""

    def __init__(self, seed: int = 1, pcpus: int = 8, scheduler: str | None = None):
        self.seed = seed
        self.pcpus = pcpus
        #: Pool scheduler by registry name; None defers to REPRO_SCHEDULER
        #: and then to the credit default (see repro.hypervisor.schedulers).
        self.scheduler = scheduler
        self.worker_vcpus = 4
        self.background_vms: int | None = None
        self.config = Config.VANILLA
        self.daemon_config: DaemonConfig | None = None
        self.slideshow_config: SlideshowConfig | None = None
        self.fault_plan: FaultPlan | None = None
        self.install_watchdog = False

    # -- fluent knobs ---------------------------------------------------
    def with_worker_vm(self, vcpus: int) -> "ScenarioBuilder":
        self.worker_vcpus = vcpus
        return self

    def with_background_vms(self, count: int) -> "ScenarioBuilder":
        self.background_vms = count
        return self

    def with_config(self, config: Config) -> "ScenarioBuilder":
        self.config = config
        return self

    def with_scheduler(self, name: str | None) -> "ScenarioBuilder":
        self.scheduler = name
        return self

    def with_faults(self, plan: FaultPlan | None) -> "ScenarioBuilder":
        self.fault_plan = plan
        return self

    def with_watchdog(self, install: bool = True) -> "ScenarioBuilder":
        """Install a :class:`HangWatchdog` on the worker guest, which also
        injects the plan's scripted ``vcpu_hang`` faults."""
        self.install_watchdog = install
        return self

    # -- build -----------------------------------------------------------
    def _background_count(self) -> int:
        if self.background_vms is not None:
            return self.background_vms
        total_vcpus = CONSOLIDATION * self.pcpus
        count = round((total_vcpus - self.worker_vcpus) / 2)
        return max(1, count)

    def build(self) -> Scenario:
        seeds = SeedSequenceFactory(self.seed)
        host = HostConfig(pcpus=self.pcpus, scheduler=self.scheduler)
        machine = Machine(host, seed=self.seed)
        if self.fault_plan is not None and self.fault_plan.active:
            machine.install_faults(self.fault_plan)

        # Weights: "so that all vCPUs are treated equally" — per-VM weight
        # proportional to the provisioned vCPU count.
        worker_domain = machine.create_domain(
            "worker", vcpus=self.worker_vcpus, weight=128 * self.worker_vcpus
        )
        guest_config = GuestConfig(pv_spinlock=self.config.uses_pvlock)
        worker_kernel = GuestKernel(worker_domain, guest_config)
        worker_lock = KernelSpinLock(worker_kernel, "worker.futex_bucket")

        background = []
        for index in range(self._background_count()):
            bg_domain = machine.create_domain(
                f"desktop{index}", vcpus=2, weight=128 * 2
            )
            bg_kernel = GuestKernel(bg_domain)
            slideshow = PhotoSlideshow(
                bg_kernel,
                rng=seeds.generator(f"slideshow.{index}"),
                config=self.slideshow_config,
            )
            slideshow.install()
            background.append(slideshow)

        daemon = None
        machine.install_vscale()
        if self.config.uses_vscale:
            daemon = VScaleDaemon(worker_kernel, self.daemon_config)
            daemon.install()
        watchdog = None
        if self.install_watchdog:
            watchdog = HangWatchdog(worker_kernel)
            watchdog.install()

        return Scenario(
            machine=machine,
            worker_domain=worker_domain,
            worker_kernel=worker_kernel,
            worker_kernel_lock=worker_lock,
            daemon=daemon,
            background=background,
            config=self.config,
            watchdog=watchdog,
        )


def run_until_done(scenario: Scenario, app, timeout_ns: int = 120 * SEC, step_ns: int = 100 * MS) -> int:
    """Run the machine until ``app.done``; returns the app duration (ns).

    ``app`` is any object with ``done``/``duration_ns`` (the workload
    harnesses).  Raises on timeout so calibration mistakes fail loudly
    instead of spinning forever.
    """
    machine = scenario.machine
    deadline = machine.sim.now + timeout_ns
    while not app.done:
        if machine.sim.now >= deadline:
            raise TimeoutError(
                f"workload did not finish within {timeout_ns / SEC:.1f}s of sim time"
            )
        machine.run(until=min(deadline, machine.sim.now + step_ns))
    return app.duration_ns
