"""The ``generality`` experiment: does vScale hold on other schedulers?

The paper implements vScale against Xen's credit scheduler, but Algorithm 1
only needs what any proportional-share host exposes: per-VM weights and
consumed time.  This grid runs one synchronization-heavy NPB cell per
*registered* scheduler (see :mod:`repro.hypervisor.schedulers`), vanilla
and vScale side by side, with the cross-layer sanitizer installed — its
``extendability`` checker re-derives ``n_i = ceil(s_ext/t)`` on every
recompute and raises on any disagreement, so a cell that finishes clean is
a machine-checked "yes, the policy holds here".

Each cell reports whether the invariant held, how many times it was
checked, how often the daemon actually rescaled, and the vScale speedup
over vanilla on the same scheduler.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.npb_common import npb_app
from repro.experiments.setups import Config, ScenarioBuilder, run_app
from repro.hypervisor.schedulers import available
from repro.metrics.report import Table
from repro.parallel import CellSpec, ParallelExecutor, get_default_executor
from repro.sanitize import InvariantViolation
from repro.workloads.openmp import SPINCOUNT_DEFAULT

#: The compared configurations: stock host vs. the vScale control loop.
CONFIGS = (Config.VANILLA, Config.VSCALE)
#: A synchronization-heavy app — the case where scaling decisions matter.
DEFAULT_APP = "cg"


@dataclass
class GeneralityCell:
    """One (scheduler, configuration) cell of the generality grid."""

    scheduler: str
    config: Config
    app: str
    duration_ns: int
    #: Daemon rescaling operations (0 under vanilla).
    reconfigurations: int
    #: How many times the sanitizer re-derived ``n_i = ceil(s_ext/t)`` (0
    #: under vanilla, which runs no Algorithm 1 pass).
    extendability_checks: int
    #: True when every invariant check passed for the whole run.
    holds: bool
    #: The violation message when ``holds`` is False, else "".
    violation: str = ""


def run_cell(
    scheduler: str,
    config: Config,
    app_name: str = DEFAULT_APP,
    seed: int = 3,
    work_scale: float = 1.0,
) -> GeneralityCell:
    """Run one sanitized NPB cell on the named scheduler.

    Same consolidated 8-pCPU host as the Figure 6 cells (4-vCPU worker,
    6 desktop VMs).  The sanitizer is installed unconditionally; an
    :class:`~repro.sanitize.InvariantViolation` is caught and recorded
    as ``holds=False`` rather than propagated, so the grid always
    renders a complete yes/no table.
    """
    scenario = (
        ScenarioBuilder(seed=seed, pcpus=8)
        .with_worker_vm(4)
        .with_config(config)
        .with_scheduler(scheduler)
        .build()
    )
    sanitizer = scenario.machine.install_sanitizer()
    app = npb_app(scenario, app_name, SPINCOUNT_DEFAULT, seed, work_scale)
    holds = True
    violation = ""
    try:
        duration = run_app(scenario, app).duration_ns
    except InvariantViolation as exc:
        holds = False
        violation = str(exc)
        duration = app.duration_ns if app.done else scenario.machine.sim.now

    daemon = scenario.daemon
    return GeneralityCell(
        scheduler=scheduler,
        config=config,
        app=app_name,
        duration_ns=duration,
        reconfigurations=daemon.reconfigurations if daemon is not None else 0,
        extendability_checks=sanitizer.stats.get("extendability", 0),
        holds=holds,
        violation=violation,
    )


@dataclass
class GeneralityResult:
    """The assembled per-scheduler generality grid."""

    app: str = DEFAULT_APP
    #: (scheduler, config) -> cell
    cells: dict = field(default_factory=dict)

    def speedup(self, scheduler: str) -> float | None:
        """Vanilla-over-vScale duration ratio on one scheduler."""
        vanilla = self.cells.get((scheduler, Config.VANILLA))
        vscale = self.cells.get((scheduler, Config.VSCALE))
        if vanilla is None or vscale is None or vscale.duration_ns == 0:
            return None
        return vanilla.duration_ns / vscale.duration_ns

    def render(self) -> str:
        table = Table(
            f"Generality: n_i = ceil(s_ext/t) across the scheduler zoo ({self.app})",
            [
                "scheduler", "config", "time (s)", "reconfigs",
                "ext. checks", "holds", "speedup",
            ],
        )
        for (scheduler, config) in sorted(
            self.cells, key=lambda key: (key[0], key[1].value)
        ):
            cell = self.cells[(scheduler, config)]
            speedup = self.speedup(scheduler)
            table.add_row(
                scheduler,
                config.value,
                cell.duration_ns / 1e9,
                cell.reconfigurations,
                cell.extendability_checks,
                "yes" if cell.holds else "no",
                speedup if config is Config.VSCALE and speedup else "-",
            )
        return table.render()


def cells(
    schedulers: tuple[str, ...] | None = None,
    configs: tuple[Config, ...] = CONFIGS,
    app_name: str = DEFAULT_APP,
    seed: int = 3,
    work_scale: float = 1.0,
) -> list[CellSpec]:
    """Decompose the grid: every registered scheduler, vanilla + vScale."""
    specs = []
    for scheduler in schedulers or available():
        for config in configs:
            specs.append(
                CellSpec(
                    experiment="generality",
                    name=f"{scheduler}/{config.value}",
                    fn=run_cell,
                    kwargs=dict(
                        scheduler=scheduler,
                        config=config,
                        app_name=app_name,
                        seed=seed,
                        work_scale=work_scale,
                    ),
                )
            )
    return specs


def run(
    schedulers: tuple[str, ...] | None = None,
    configs: tuple[Config, ...] = CONFIGS,
    app_name: str = DEFAULT_APP,
    seed: int = 3,
    work_scale: float = 1.0,
    executor: ParallelExecutor | None = None,
) -> GeneralityResult:
    """Run the generality grid on the parallel executor."""
    if executor is None:
        executor = get_default_executor()
    result = GeneralityResult(app=app_name)
    specs = cells(schedulers, configs, app_name, seed, work_scale)
    for cell in executor.run_cells(specs):
        result.cells[(cell.scheduler, cell.config)] = cell
    return result
