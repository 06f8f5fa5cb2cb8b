"""Shared experiment scaffolding.

The application experiments (Figures 6-13) all use the paper's setup: a
worker SMP-VM under test, consolidated with "photo-slideshow" desktop VMs
at an average of two vCPUs per pCPU, with weights configured so every vCPU
is treated equally by the hypervisor, compared across four configurations:

* ``VANILLA``        — stock Xen/Linux;
* ``PVLOCK``         — stock + paravirtual spinlocks in the guest;
* ``VSCALE``         — vScale daemon + balancer + scheduler extension;
* ``VSCALE_PVLOCK``  — both.

Every application cell measures the same way, through :func:`run_app`:
warm the host up for :data:`WARMUP_NS`, launch the app on the worker VM,
run it to completion, and read the worker's counters over the app's
window only.  The baselines the paper compares against are wired on by
:func:`install_hotplug_scaler` and :func:`install_vcpubal`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.core.baselines import HotplugScaler, VCPUBalManager
from repro.core.daemon import DaemonConfig, VScaleDaemon
from repro.faults import FaultPlan
from repro.guest.hotplug import HotplugModel
from repro.guest.kernel import GuestConfig, GuestKernel
from repro.guest.sync import KernelSpinLock
from repro.hypervisor.config import HostConfig
from repro.hypervisor.domain import Domain
from repro.hypervisor.machine import Machine
from repro.recovery.watchdog import HangWatchdog
from repro.sim.rng import SeedSequenceFactory
from repro.units import MS, SEC
from repro.workloads.desktop import PhotoSlideshow


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
#: Background warm-up before the application launches.
WARMUP_NS = 2 * SEC
#: The Linux version whose CPU-hotplug latencies the baselines pay.
HOTPLUG_KERNEL = "v3.14.15"


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
            slideshow = PhotoSlideshow(bg_kernel, rng=seeds.generator(f"slideshow.{index}"))
            slideshow.install()
            background.append(slideshow)

        daemon = None
        if self.config.uses_vscale:
            # Algorithm 1 is part of vScale's Xen patch, so stock cells run
            # none of it.  A reader wired on later installs it itself
            # (install_hotplug_scaler); a missed one fails loudly, since
            # Machine.hyp_read_extendability raises without the extension.
            machine.install_vscale()
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


@dataclass
class AppRun:
    """The worker VM's measurements over one application window."""

    duration_ns: int
    #: Time the worker's vCPUs sat runnable but not running (Figure 9).
    wait_ns: int
    #: Time the worker's vCPUs ran.
    run_ns: int
    #: Reschedule IPIs received per vCPU per second (Figures 10 and 13).
    ipi_rate_per_vcpu: float


def _ipis(domain: Domain) -> int:
    return sum(int(vcpu.ipi_received) for vcpu in domain.vcpus)


def run_app(scenario: Scenario, app) -> AppRun:
    """The application figures' measurement protocol, on a built scenario.

    Starts the host, warms the background VMs up for :data:`WARMUP_NS`,
    launches ``app`` (an NPB, PARSEC or other harness with ``launch``,
    ``done`` and ``duration_ns``) and runs it to completion.  The worker's
    wait, run and IPI counters cover the app's window only.
    """
    scenario.start()
    scenario.run(WARMUP_NS)
    domain = scenario.worker_domain
    sim = scenario.machine.sim
    wait0 = domain.total_wait_ns(sim.now)
    run0 = domain.total_run_ns(sim.now)
    ipi0 = _ipis(domain)
    app.launch()
    duration = run_until_done(scenario, app)
    return AppRun(
        duration_ns=duration,
        wait_ns=domain.total_wait_ns(sim.now) - wait0,
        run_ns=domain.total_run_ns(sim.now) - run0,
        ipi_rate_per_vcpu=(_ipis(domain) - ipi0) / len(domain.vcpus) * 1e9 / duration,
    )


def install_hotplug_scaler(
    scenario: Scenario, seed: int, kernel: str = HOTPLUG_KERNEL
) -> HotplugScaler:
    """Install vScale's policy with Linux CPU hotplug as the mechanism on
    the worker guest (the mechanism ablation and the fault matrix).

    The scaler reads the extendability channel, so this also installs the
    hypervisor's Algorithm 1 ticker (before ``start()``).
    """
    scenario.machine.install_vscale()
    model = HotplugModel(kernel, SeedSequenceFactory(seed).generator("hp"))
    scaler = HotplugScaler(scenario.worker_kernel, model)
    scaler.install()
    return scaler


def install_vcpubal(scenario: Scenario, seed: int) -> VCPUBalManager:
    """Install VCPU-Bal, dom0's weight-only manager over CPU hotplug, on
    the worker guest (the policy ablation and the chaos outage profile)."""
    # Imported here: no NPB or Apache cell without VCPU-Bal loads dom0.
    from repro.hypervisor.dom0 import Dom0Load, Dom0Toolstack

    seeds = SeedSequenceFactory(seed)
    dom0 = Dom0Toolstack(seeds.generator("dom0"), load=Dom0Load.IDLE)
    model = HotplugModel(HOTPLUG_KERNEL, seeds.generator("hp"))
    manager = VCPUBalManager(scenario.worker_kernel, dom0, model)
    manager.install()
    return manager
