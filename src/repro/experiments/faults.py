"""The ``faults`` experiment: control-loop robustness under injected faults.

A fault-rate x workload matrix comparing vScale (hardened daemon +
balancer) against the hotplug baseline while the fault injector drops
and delays reschedule IPIs, fails and stales channel reads, jitters and
stalls the daemon, fails freeze syscalls, and bursts dom0 sweeps — all
from one uniform rate knob (:meth:`repro.faults.FaultConfig.scaled`).

Each cell reports throughput degradation (slowdown vs. the same
mechanism at rate 0) and control-loop stability: freeze-flap count
(direction reversals of the scaling decision), suppressed flaps, stale
decisions held, and the injector's own tally of what it actually did.
The paper's claim under test: vScale's control loop degrades smoothly
— no oscillation blow-up, no deadlock — because every fault has an
explicit degradation path (see DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.daemon import DaemonConfig
from repro.experiments.npb_common import npb_app
from repro.experiments.setups import Config, ScenarioBuilder, install_hotplug_scaler, run_app
from repro.faults import FaultConfig, FaultPlan
from repro.metrics.report import Table
from repro.parallel import CellSpec, ParallelExecutor, get_default_executor
from repro.workloads.openmp import SPINCOUNT_DEFAULT

#: Uniform per-site fault rates of the matrix (0.0 is the baseline row).
FAULT_RATES = (0.0, 0.02, 0.05, 0.1)
#: The compared scaling mechanisms.
MECHANISMS = ("vscale", "hotplug")
#: One synchronization-heavy app and one insensitive app by default.
DEFAULT_APPS = ("cg", "ep")
#: Seed of the fault plan itself — independent of the workload seed so
#: the same fault schedule can be replayed against different scenarios.
FAULT_SEED = 11


@dataclass
class FaultCell:
    """One (app, mechanism, fault-rate) matrix cell."""

    app: str
    mechanism: str
    rate: float
    duration_ns: int
    wait_ns: int
    reconfigurations: int
    #: Direction reversals of the scaling decision (flap pressure).
    direction_flaps: int
    #: Reversals suppressed by the dwell-time hysteresis.
    flaps_suppressed: int
    #: Periods where expired data was ignored (stale-decision count).
    stale_holds: int
    #: Channel reads that failed (before retries).
    read_failures: int
    #: The injector's tally (:class:`repro.faults.FaultStats`), {} at rate 0.
    injected: dict = field(default_factory=dict)
    #: The daemon's full degradation counters, {} for the hotplug baseline.
    daemon: dict = field(default_factory=dict)


def run_matrix_cell(
    app_name: str,
    mechanism: str,
    rate: float,
    seed: int = 3,
    work_scale: float = 1.0,
    fault_seed: int = FAULT_SEED,
    scheduler: str | None = None,
) -> FaultCell:
    """Run one cell of the fault matrix.

    Same consolidated 8-pCPU host as the Figure 6 cells (4-vCPU worker,
    6 desktop VMs), with the fault plan layered on top.  vScale runs the
    hardened daemon profile; the hotplug baseline keeps its naive
    skip-on-failure loop.  ``scheduler`` selects the pool scheduler by
    registry name (``None`` keeps the default) — fault injection routes
    through the scheduler interface, so any registered scheduler works.
    """
    if mechanism not in MECHANISMS:
        raise ValueError(f"unknown mechanism {mechanism!r}")
    builder = (
        ScenarioBuilder(seed=seed, pcpus=8)
        .with_worker_vm(4)
        .with_scheduler(scheduler)
        .with_faults(FaultPlan(FaultConfig.scaled(rate), seed=fault_seed))
    )
    if mechanism == "vscale":
        builder.with_config(Config.VSCALE)
        builder.daemon_config = DaemonConfig.hardened()
    scenario = builder.build()
    scaler = scenario.daemon or install_hotplug_scaler(scenario, seed)
    run = run_app(scenario, npb_app(scenario, app_name, SPINCOUNT_DEFAULT, seed, work_scale))

    stats = scenario.daemon.stats if scenario.daemon is not None else None
    faults = scenario.machine.faults
    return FaultCell(
        app=app_name,
        mechanism=mechanism,
        rate=rate,
        duration_ns=run.duration_ns,
        wait_ns=run.wait_ns,
        reconfigurations=scaler.reconfigurations,
        direction_flaps=stats.direction_flaps if stats else 0,
        flaps_suppressed=stats.flaps_suppressed if stats else 0,
        stale_holds=stats.stale_holds if stats else 0,
        read_failures=stats.read_failures if stats else scaler.read_failures,
        injected=faults.stats.to_dict() if faults is not None else {},
        daemon=stats.to_dict() if stats else {},
    )


@dataclass
class FaultMatrixResult:
    """The assembled fault matrix."""

    #: (app, mechanism, rate) -> cell
    cells: dict = field(default_factory=dict)

    def slowdown(self, app: str, mechanism: str, rate: float) -> float:
        """Duration relative to the same mechanism's lowest-rate cell."""
        rates = sorted(r for a, m, r in self.cells if a == app and m == mechanism)
        base = self.cells[(app, mechanism, rates[0])].duration_ns
        return self.cells[(app, mechanism, rate)].duration_ns / base

    def render(self) -> str:
        table = Table(
            "Fault matrix: degradation and control-loop stability",
            [
                "app", "mechanism", "rate", "time (s)", "slowdown",
                "reconfigs", "flaps", "suppressed", "stale holds",
                "read fails", "retries", "abandons", "resyncs", "injected",
            ],
        )
        for (app, mechanism, rate) in sorted(self.cells):
            cell = self.cells[(app, mechanism, rate)]
            # Recovery counters ride the daemon dict, so the hotplug
            # baseline (which has no daemon) renders them as 0.
            daemon = cell.daemon
            table.add_row(
                app,
                cell.mechanism,
                f"{rate:g}",
                cell.duration_ns / 1e9,
                self.slowdown(app, mechanism, rate),
                cell.reconfigurations,
                cell.direction_flaps,
                cell.flaps_suppressed,
                cell.stale_holds,
                cell.read_failures,
                daemon.get("read_retries", 0),
                daemon.get("read_abandons", 0),
                daemon.get("watchdog_resyncs", 0),
                sum(cell.injected.values()) if cell.injected else 0,
            )
        return table.render()


def cells(
    apps: tuple[str, ...] = DEFAULT_APPS,
    mechanisms: tuple[str, ...] = MECHANISMS,
    rates: tuple[float, ...] = FAULT_RATES,
    seed: int = 3,
    work_scale: float = 1.0,
    fault_seed: int = FAULT_SEED,
    scheduler: str | None = None,
) -> list[CellSpec]:
    """Decompose the fault matrix into independent cells.

    As in :func:`repro.experiments.fig6_7.cells`, the scheduler key
    enters the cell name and kwargs only when explicitly set, so the
    default-scheduler cell names (and their goldens) are untouched.
    """
    specs = []
    for app in apps:
        for mechanism in mechanisms:
            for rate in rates:
                name = f"{app}/{mechanism}/rate={rate:g}"
                kwargs = dict(
                    app_name=app,
                    mechanism=mechanism,
                    rate=rate,
                    seed=seed,
                    work_scale=work_scale,
                    fault_seed=fault_seed,
                )
                if scheduler is not None:
                    name += f"/sched={scheduler}"
                    kwargs["scheduler"] = scheduler
                specs.append(
                    CellSpec(
                        experiment="faults",
                        name=name,
                        fn=run_matrix_cell,
                        kwargs=kwargs,
                    )
                )
    return specs


def run(
    apps: tuple[str, ...] = DEFAULT_APPS,
    mechanisms: tuple[str, ...] = MECHANISMS,
    rates: tuple[float, ...] = FAULT_RATES,
    seed: int = 3,
    work_scale: float = 1.0,
    fault_seed: int = FAULT_SEED,
    scheduler: str | None = None,
    executor: ParallelExecutor | None = None,
) -> FaultMatrixResult:
    """Run the fault matrix on the parallel executor."""
    if executor is None:
        executor = get_default_executor()
    result = FaultMatrixResult()
    specs = cells(apps, mechanisms, rates, seed, work_scale, fault_seed, scheduler)
    for cell in executor.run_cells(specs):
        result.cells[(cell.app, cell.mechanism, cell.rate)] = cell
    return result
