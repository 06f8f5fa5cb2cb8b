"""The ``chaos`` experiment: crash-stop faults and recovery protocols.

A profile grid running one synchronization-heavy NPB app under seeded
crash schedules (:func:`repro.faults.chaos.generate_plan`):

* ``none``   — the healthy baseline every other profile is compared to;
* ``crash``  — vScale daemon crash-stops (state lost, rebuilt from the
  durable xenstore snapshot on restart);
* ``hang``   — wedged vCPUs cleared by the hang watchdog's
  freeze/unfreeze cycle;
* ``mixed``  — crashes and hangs together;
* ``outage`` — dom0 balancer outages degrading VCPU-Bal to naive
  per-domain decisions (runs the VANILLA + VCPU-Bal stack, so its
  slowdown column compares mechanism-internal degradation, not vScale).

Each cell reports the recovery counters
(:class:`repro.recovery.RecoveryStats`).  The claim under test: every
crash-stop fault has a bounded, explicit recovery path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.daemon import DaemonConfig
from repro.experiments.npb_common import npb_app
from repro.experiments.setups import WARMUP_NS, Config, ScenarioBuilder, install_vcpubal, run_app
from repro.faults.chaos import generate_plan
from repro.metrics.report import Table
from repro.parallel import CellSpec, ParallelExecutor, get_default_executor
from repro.units import SEC
from repro.workloads.openmp import SPINCOUNT_DEFAULT

#: The fault profiles of the grid, in report order.
PROFILES = ("none", "crash", "hang", "mixed", "outage")
DEFAULT_APP = "cg"
#: App-phase window the scripted fault instants are spread over at full
#: work scale; shrunk with ``work_scale`` so faults still land inside
#: scaled-down runs.
APP_WINDOW_NS = 4 * SEC
#: Seed of the crash schedule, independent of the workload seed.
CHAOS_SEED = 17


@dataclass
class ChaosCell:
    """One (profile) cell of the chaos grid."""

    profile: str
    app: str
    duration_ns: int
    wait_ns: int
    #: :meth:`repro.recovery.RecoveryStats.to_dict`, {} for ``none``.
    recovery: dict = field(default_factory=dict)
    #: The daemon's degradation counters, {} for the ``outage`` profile.
    daemon: dict = field(default_factory=dict)


def _build_plan(profile: str, chaos_seed: int, work_scale: float):
    window = WARMUP_NS + max(SEC, round(APP_WINDOW_NS * work_scale))
    if profile == "none":
        return None
    if profile == "crash":
        return generate_plan(chaos_seed, window, daemon_crashes=2)
    # Hang targets draw from 1..vcpus-1; vcpus=2 pins them to vCPU 1,
    # which the daemon keeps online on the consolidated host (the higher
    # indices spend most of the run frozen, leaving a hang no surface).
    if profile == "hang":
        return generate_plan(chaos_seed, window, vcpu_hangs=2, vcpus=2)
    if profile == "mixed":
        return generate_plan(
            chaos_seed, window, daemon_crashes=2, vcpu_hangs=1, vcpus=2
        )
    if profile == "outage":
        return generate_plan(chaos_seed, window, balancer_outages=2)
    raise ValueError(f"unknown chaos profile {profile!r}")


def run_chaos_cell(
    profile: str,
    app_name: str = DEFAULT_APP,
    seed: int = 3,
    work_scale: float = 1.0,
    chaos_seed: int = CHAOS_SEED,
    scheduler: str | None = None,
) -> ChaosCell:
    """Run one profile cell on the consolidated 8-pCPU host.

    The vScale-path profiles run the :meth:`DaemonConfig.crash_hardened`
    daemon (durable xenstore state) plus the hang watchdog; ``outage``
    runs VANILLA with the centralized VCPU-Bal manager, whose degraded
    mode the outage exercises.
    """
    builder = (
        ScenarioBuilder(seed=seed, pcpus=8)
        .with_worker_vm(4)
        .with_scheduler(scheduler)
        .with_faults(_build_plan(profile, chaos_seed, work_scale))
    )
    if profile == "outage":
        scenario = builder.build()
        install_vcpubal(scenario, seed)
    else:
        builder.with_config(Config.VSCALE).with_watchdog(profile in ("hang", "mixed"))
        builder.daemon_config = DaemonConfig.crash_hardened()
        scenario = builder.build()
    run = run_app(scenario, npb_app(scenario, app_name, SPINCOUNT_DEFAULT, seed, work_scale))

    stats = scenario.daemon.stats if scenario.daemon is not None else None
    faults = scenario.machine.faults
    return ChaosCell(
        profile=profile,
        app=app_name,
        duration_ns=run.duration_ns,
        wait_ns=run.wait_ns,
        recovery=faults.recovery.to_dict() if faults is not None else {},
        daemon=stats.to_dict() if stats else {},
    )


@dataclass
class ChaosResult:
    """The assembled chaos grid."""

    #: profile -> cell
    cells: dict = field(default_factory=dict)

    def slowdown(self, profile: str) -> float:
        """Duration relative to the healthy ``none`` baseline."""
        base = self.cells["none"].duration_ns if "none" in self.cells else None
        if not base:
            return 1.0
        return self.cells[profile].duration_ns / base

    def render(self) -> str:
        table = Table(
            "Chaos grid: crash-stop faults and recovery",
            [
                "profile", "time (s)", "slowdown", "crashes", "restores",
                "hangs", "clears", "outages", "resyncs", "rec epochs",
            ],
        )
        for profile in PROFILES:
            if profile not in self.cells:
                continue
            cell = self.cells[profile]
            rec = cell.recovery
            epochs = (
                rec.get("recovery_epochs_total", 0) / rec.get("recoveries", 1)
                if rec.get("recoveries")
                else 0.0
            )
            table.add_row(
                profile,
                cell.duration_ns / 1e9,
                self.slowdown(profile),
                rec.get("daemon_crashes", 0),
                rec.get("state_restores", 0),
                rec.get("hangs_injected", 0),
                rec.get("watchdog_clears", 0),
                rec.get("balancer_outages", 0),
                rec.get("balancer_resyncs", 0),
                epochs,
            )
        return table.render()


def cells(
    profiles: tuple[str, ...] = PROFILES,
    app_name: str = DEFAULT_APP,
    seed: int = 3,
    work_scale: float = 1.0,
    chaos_seed: int = CHAOS_SEED,
    scheduler: str | None = None,
) -> list[CellSpec]:
    """Decompose the chaos grid into independent cells."""
    specs = []
    for profile in profiles:
        name = f"{app_name}/{profile}"
        kwargs = dict(
            profile=profile,
            app_name=app_name,
            seed=seed,
            work_scale=work_scale,
            chaos_seed=chaos_seed,
        )
        if scheduler is not None:
            name += f"/sched={scheduler}"
            kwargs["scheduler"] = scheduler
        specs.append(
            CellSpec(experiment="chaos", name=name, fn=run_chaos_cell, kwargs=kwargs)
        )
    return specs


def run(
    profiles: tuple[str, ...] = PROFILES,
    app_name: str = DEFAULT_APP,
    seed: int = 3,
    work_scale: float = 1.0,
    chaos_seed: int = CHAOS_SEED,
    scheduler: str | None = None,
    executor: ParallelExecutor | None = None,
) -> ChaosResult:
    """Run the chaos grid on the parallel executor."""
    if executor is None:
        executor = get_default_executor()
    result = ChaosResult()
    specs = cells(profiles, app_name, seed, work_scale, chaos_seed, scheduler)
    for cell in executor.run_cells(specs):
        result.cells[cell.profile] = cell
    return result
