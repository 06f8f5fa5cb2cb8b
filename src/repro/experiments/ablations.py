"""Design-choice ablations (DESIGN.md section 5).

These are not in the paper's evaluation; they isolate the contributions of
vScale's individual design decisions on our simulated stack:

* **policy** — consumption-aware extendability (vScale) vs. weight-only
  targets (VCPU-Bal): work conservation under mixed load.
* **mechanism** — microsecond freeze/unfreeze vs. Linux CPU hotplug, with
  the same extendability policy driving both.
* **rounding** — ceil (Algorithm 1's letter) vs. floor vs. conservative
  rounding of the extendability into a vCPU count.
* **daemon period** — reaction latency vs. background burstiness.

Each ablation variant is an independent simulation, so every
``run_*_ablation`` fans its variants out through the parallel executor
(one :class:`~repro.parallel.CellSpec` per variant); the module-level
``_*_point`` functions are the picklable cell bodies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.daemon import DaemonConfig
from repro.experiments.npb_common import npb_app
from repro.experiments.setups import (
    HOTPLUG_KERNEL,
    Config,
    Scenario,
    ScenarioBuilder,
    install_hotplug_scaler,
    install_vcpubal,
    run_app,
)
from repro.metrics.report import Table
from repro.parallel import CellSpec, ParallelExecutor, get_default_executor
from repro.units import MS
from repro.workloads.openmp import SPINCOUNT_ACTIVE


@dataclass
class AblationPoint:
    label: str
    duration_ns: int
    wait_ns: int
    reconfigurations: int


@dataclass
class AblationResult:
    """One ablation's points, renderable like the figure results."""

    title: str
    points: list[AblationPoint] = field(default_factory=list)

    def render(self) -> str:
        table = Table(
            self.title, ["variant", "duration (s)", "VM wait (s)", "reconfigs"]
        )
        for point in self.points:
            table.add_row(
                point.label,
                point.duration_ns / 1e9,
                point.wait_ns / 1e9,
                point.reconfigurations,
            )
        return table.render()


def _measure(
    scenario: Scenario, label: str, scaler, app_name: str, seed: int, work_scale: float
) -> AblationPoint:
    """Run the heavy-spin app on ``scenario``; ``scaler`` (the vScale
    daemon, a baseline manager or None) counts the reconfigurations."""
    run = run_app(scenario, npb_app(scenario, app_name, SPINCOUNT_ACTIVE, seed, work_scale))
    reconfigs = scaler.reconfigurations if scaler is not None else 0
    return AblationPoint(label, run.duration_ns, run.wait_ns, reconfigs)


def _mechanism_point(
    variant: str, app_name: str, hotplug_kernel: str, seed: int, work_scale: float
) -> AblationPoint:
    """One mechanism variant: ``fixed`` / ``hotplug`` / ``vscale``."""
    if variant == "fixed":
        scenario = ScenarioBuilder(seed=seed).build()
        label, scaler = "fixed vCPUs", None
    elif variant == "hotplug":
        scenario = ScenarioBuilder(seed=seed).build()
        label = f"hotplug ({hotplug_kernel})"
        scaler = install_hotplug_scaler(scenario, seed, hotplug_kernel)
    elif variant == "vscale":
        scenario = ScenarioBuilder(seed=seed).with_config(Config.VSCALE).build()
        label, scaler = "vScale balancer", scenario.daemon
    else:
        raise ValueError(f"unknown mechanism variant {variant!r}")
    return _measure(scenario, label, scaler, app_name, seed, work_scale)


def run_mechanism_ablation(
    app_name: str = "cg",
    hotplug_kernel: str = HOTPLUG_KERNEL,
    seed: int = 3,
    work_scale: float = 0.5,
    executor: ParallelExecutor | None = None,
) -> list[AblationPoint]:
    """Same policy, three mechanisms: none / hotplug / vScale balancer."""
    if executor is None:
        executor = get_default_executor()
    specs = [
        CellSpec(
            experiment="ablations",
            name=f"mechanism/{variant}",
            fn=_mechanism_point,
            kwargs=dict(
                variant=variant,
                app_name=app_name,
                hotplug_kernel=hotplug_kernel,
                seed=seed,
                work_scale=work_scale,
            ),
        )
        for variant in ("fixed", "hotplug", "vscale")
    ]
    return executor.run_cells(specs)


def _policy_point(
    variant: str, app_name: str, seed: int, work_scale: float
) -> AblationPoint:
    """One policy variant: ``vscale`` / ``vcpubal``."""
    if variant == "vscale":
        scenario = ScenarioBuilder(seed=seed).with_config(Config.VSCALE).build()
        label, scaler = "vScale (consumption-aware)", scenario.daemon
    elif variant == "vcpubal":
        scenario = ScenarioBuilder(seed=seed).build()
        label = "VCPU-Bal (weight-only, dom0)"
        scaler = install_vcpubal(scenario, seed)
    else:
        raise ValueError(f"unknown policy variant {variant!r}")
    return _measure(scenario, label, scaler, app_name, seed, work_scale)


def run_policy_ablation(
    app_name: str = "cg",
    seed: int = 3,
    work_scale: float = 0.5,
    executor: ParallelExecutor | None = None,
) -> list[AblationPoint]:
    """vScale's consumption-aware policy vs. VCPU-Bal's weight-only one."""
    if executor is None:
        executor = get_default_executor()
    specs = [
        CellSpec(
            experiment="ablations",
            name=f"policy/{variant}",
            fn=_policy_point,
            kwargs=dict(
                variant=variant, app_name=app_name, seed=seed, work_scale=work_scale
            ),
        )
        for variant in ("vscale", "vcpubal")
    ]
    return executor.run_cells(specs)


def _rounding_point(
    mode: str, app_name: str, seed: int, work_scale: float
) -> AblationPoint:
    builder = ScenarioBuilder(seed=seed).with_config(Config.VSCALE)
    builder.daemon_config = DaemonConfig(round_mode=mode)
    scenario = builder.build()
    return _measure(scenario, f"round={mode}", scenario.daemon, app_name, seed, work_scale)


def run_rounding_ablation(
    app_name: str = "ua",
    seed: int = 3,
    work_scale: float = 0.5,
    executor: ParallelExecutor | None = None,
) -> list[AblationPoint]:
    """ceil vs. floor vs. conservative rounding of the vCPU target."""
    if executor is None:
        executor = get_default_executor()
    specs = [
        CellSpec(
            experiment="ablations",
            name=f"rounding/{mode}",
            fn=_rounding_point,
            kwargs=dict(
                mode=mode, app_name=app_name, seed=seed, work_scale=work_scale
            ),
        )
        for mode in ("ceil", "floor", "conservative")
    ]
    return executor.run_cells(specs)


def _period_point(
    period_ms: int, app_name: str, seed: int, work_scale: float
) -> AblationPoint:
    builder = ScenarioBuilder(seed=seed).with_config(Config.VSCALE)
    builder.daemon_config = DaemonConfig(period_ns=period_ms * MS)
    scenario = builder.build()
    return _measure(
        scenario, f"period={period_ms}ms", scenario.daemon, app_name, seed, work_scale
    )


def run_period_ablation(
    app_name: str = "cg",
    periods_ms: tuple[int, ...] = (10, 100, 1000),
    seed: int = 3,
    work_scale: float = 0.5,
    executor: ParallelExecutor | None = None,
) -> list[AblationPoint]:
    """Daemon polling period sensitivity."""
    if executor is None:
        executor = get_default_executor()
    specs = [
        CellSpec(
            experiment="ablations",
            name=f"period/{period}ms",
            fn=_period_point,
            kwargs=dict(
                period_ms=period, app_name=app_name, seed=seed, work_scale=work_scale
            ),
        )
        for period in periods_ms
    ]
    return executor.run_cells(specs)


def run_all(
    seed: int = 3,
    work_scale: float = 0.5,
    executor: ParallelExecutor | None = None,
) -> list[AblationResult]:
    """All four ablations, as renderable results (used by the runner)."""
    if executor is None:
        executor = get_default_executor()
    return [
        AblationResult(
            "Ablation: reconfiguration mechanism (cg, heavy spin)",
            run_mechanism_ablation(seed=seed, work_scale=work_scale, executor=executor),
        ),
        AblationResult(
            "Ablation: scaling policy (cg, heavy spin)",
            run_policy_ablation(seed=seed, work_scale=work_scale, executor=executor),
        ),
        AblationResult(
            "Ablation: extendability rounding (ua, heavy spin)",
            run_rounding_ablation(seed=seed, work_scale=work_scale, executor=executor),
        ),
        AblationResult(
            "Ablation: daemon polling period (cg, heavy spin)",
            run_period_ablation(seed=seed, work_scale=work_scale, executor=executor),
        ),
    ]
