"""Shared runner for the NPB experiments (Figures 6, 7, 9 and 10).

One *cell* of the NPB matrix = (application, vCPU count, GOMP_SPINCOUNT,
configuration).  The runner builds the consolidated scenario, launches
the app with the provisioned thread count through
:func:`~repro.experiments.setups.run_app`, and returns the measurements
every NPB figure needs: duration, worker waiting time over the app
window, and the per-vCPU IPI rate.  :func:`npb_app` builds the app for
every other NPB cell body too (ablations, faults, chaos, generality).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.experiments.setups import (
    WARMUP_NS,  # noqa: F401 (re-exported)
    Config,
    Scenario,
    ScenarioBuilder,
    run_app,
)
from repro.sim.rng import SeedSequenceFactory
from repro.workloads.npb import NPBApp, NPB_PROFILES


@dataclass
class NPBCell:
    app: str
    vcpus: int
    spincount: int
    config: Config
    duration_ns: int
    wait_ns: int
    cpu_used_ns: int
    #: Reschedule IPIs received per vCPU per second during the app run.
    ipi_rate_per_vcpu: float
    #: Trace of (time_ns, online_vcpus) from the daemon, when present.
    vcpu_trace: list


def npb_app(
    scenario: Scenario, app_name: str, spincount: int, seed: int, work_scale: float = 1.0
) -> NPBApp:
    """NPB ``app_name`` on the worker guest, its iterations scaled by
    ``work_scale`` (at least 2).

    The futex-bucket kernel lock exists in every configuration; the
    pv_spinlock guest option only changes how waiters behave on it.
    """
    if app_name not in NPB_PROFILES:
        raise KeyError(f"unknown NPB app {app_name!r}")
    profile = NPB_PROFILES[app_name]
    if work_scale != 1.0:
        profile = replace(
            profile, iterations=max(2, round(profile.iterations * work_scale))
        )
    return NPBApp(
        scenario.worker_kernel,
        profile,
        spincount,
        SeedSequenceFactory(seed).stream("npb", "normal"),
        kernel_lock=scenario.worker_kernel_lock,
    )


def run_cell(
    app_name: str,
    vcpus: int,
    spincount: int,
    config: Config,
    seed: int = 3,
    work_scale: float = 1.0,
    daemon_config=None,
    pcpus: int | None = None,
    scheduler: str | None = None,
) -> NPBCell:
    """Run one cell of the NPB matrix and collect its measurements.

    The pool is sized so the worker keeps the paper's relative position —
    a quarter of the host's weight — at either VM size: the 4-vCPU VM runs
    on 8 pCPUs with 6 desktops, the 8-vCPU VM on 16 pCPUs with 12 (the
    testbed had 16 logical CPUs; consolidation stays at 2 vCPUs/pCPU).

    ``scheduler`` selects the pool scheduler by registry name (see
    :mod:`repro.hypervisor.schedulers`); ``None`` keeps the default.
    """
    if pcpus is None:
        pcpus = 16 if vcpus >= 8 else 8
    builder = (
        ScenarioBuilder(seed=seed, pcpus=pcpus)
        .with_worker_vm(vcpus)
        .with_config(config)
        .with_scheduler(scheduler)
    )
    builder.daemon_config = daemon_config
    scenario = builder.build()
    run = run_app(scenario, npb_app(scenario, app_name, spincount, seed, work_scale))
    return NPBCell(
        app=app_name,
        vcpus=vcpus,
        spincount=spincount,
        config=config,
        duration_ns=run.duration_ns,
        wait_ns=run.wait_ns,
        cpu_used_ns=run.run_ns,
        ipi_rate_per_vcpu=run.ipi_rate_per_vcpu,
        vcpu_trace=scenario.daemon.vcpu_trace() if scenario.daemon else [],
    )
