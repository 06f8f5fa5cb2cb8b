"""Recovery-protocol tests: crash/restart, hang watchdog, outage degrade.

Each crash-stop fault class gets its protocol pinned:

* a crashed daemon restarts, rebuilds its dwell state from the durable
  xenstore snapshot, and reconverges within a bounded number of epochs;
* a crashed daemon *without* durable state still recovers (relearning
  from scratch) — the protocol does not depend on the optimization;
* a wedged vCPU visibly starves fair threads until the watchdog's
  freeze/unfreeze cycle clears it;
* a dom0 balancer outage degrades VCPU-Bal to naive per-domain decisions
  and explicitly re-syncs when the service returns.
"""

from repro.core.daemon import DaemonConfig
from repro.experiments.setups import Config, ScenarioBuilder, install_vcpubal
from repro.faults import FaultEvent, FaultPlan, generate_plan
from repro.units import MS, SEC


def _vscale(plan, daemon_config=None, seed=11, watchdog=False):
    builder = (
        ScenarioBuilder(seed=seed, pcpus=4)
        .with_worker_vm(4)
        .with_config(Config.VSCALE)
        .with_faults(plan)
        .with_watchdog(watchdog)
    )
    builder.daemon_config = daemon_config
    return builder.build()


# ----------------------------------------------------------------------
# Daemon crash/restart
# ----------------------------------------------------------------------
def test_daemon_crash_restarts_and_reconverges():
    plan = generate_plan(11, 1 * SEC, daemon_crashes=2)
    scenario = _vscale(plan, DaemonConfig.crash_hardened())
    scenario.start()
    scenario.run(1 * SEC)
    recovery = scenario.machine.faults.recovery
    assert recovery.daemon_crashes == 2
    assert recovery.daemon_restarts == 2
    assert recovery.state_restores == 2
    assert recovery.recoveries == 2
    # Bounded reconvergence: restart delay (20 ms = 2 periods) + the
    # first fresh read => a small, fixed epoch count.
    assert 1 <= recovery.recovery_epochs_max <= 4


def test_daemon_crash_without_durable_state_still_recovers():
    plan = generate_plan(11, 1 * SEC, daemon_crashes=2)
    scenario = _vscale(plan, DaemonConfig.hardened())
    scenario.start()
    scenario.run(1 * SEC)
    recovery = scenario.machine.faults.recovery
    assert recovery.daemon_restarts == 2
    assert recovery.state_restores == 0  # nothing durable to reload
    assert recovery.recoveries == 2


def test_durable_state_survives_crash():
    """The restored dwell state equals what the daemon published: after
    the run, the xenstore key holds the live hysteresis values."""
    import json

    plan = generate_plan(11, 1 * SEC, daemon_crashes=1)
    scenario = _vscale(plan, DaemonConfig.crash_hardened())
    scenario.start()
    scenario.run(1 * SEC)
    daemon = scenario.daemon
    store = scenario.machine.xenstore
    path = f"/vscale/{scenario.worker_domain.name}/daemon/state"
    assert store.exists(path)
    saved = json.loads(store.read(path))
    assert set(saved) == {"direction", "last_change_ns", "shrink_votes"}
    assert saved["direction"] == daemon._last_direction
    assert saved["last_change_ns"] == daemon._last_change_ns


def test_crashed_and_healthy_twins_converge():
    """The reconvergence claim, end to end: after recovery completes the
    crashed run's scaling decisions track the healthy twin's again (the
    online-vCPU count agrees once both are past the last crash)."""
    plan = generate_plan(11, 1 * SEC, daemon_crashes=1)
    crashed = _vscale(plan, DaemonConfig.crash_hardened())
    healthy = _vscale(None, DaemonConfig.crash_hardened())
    crashed.start()
    healthy.start()
    crashed.run(2 * SEC)
    healthy.run(2 * SEC)
    assert crashed.machine.faults.recovery.recoveries == 1
    assert crashed.worker_kernel.online_vcpus == healthy.worker_kernel.online_vcpus


def test_zero_crash_plan_changes_nothing():
    """A plan without crash events leaves the run identical to no plan at
    all: crash sites consume no randomness when quiet (golden safety)."""
    from repro.recovery import state_dict

    # Active (so an injector is installed and every site, crash sites
    # included, is consulted), but its one event lies past the run.
    plan = FaultPlan(seed=9, events=(FaultEvent(at_ns=10 * SEC, site="daemon_stall"),))
    with_plan = _vscale(plan, DaemonConfig.hardened())
    without = _vscale(None, DaemonConfig.hardened())
    with_plan.start()
    without.start()
    with_plan.run(500 * MS)
    without.run(500 * MS)
    a = state_dict(with_plan.machine)
    b = state_dict(without.machine)
    # The injector itself only exists on one side; everything else
    # (domains, scheduler, pool, engine, rng, xenstore) must be identical.
    assert a["faults"] is not None and b["faults"] is None
    for key in a.keys() - {"faults"}:
        assert a[key] == b[key], key
    # Each site draws from its own plan-seeded stream, so a quiet site
    # that drew would leave the rest equal: check that none drew.
    assert a["faults"]["rng"]["streams"] == {}


# ----------------------------------------------------------------------
# vCPU hang watchdog
# ----------------------------------------------------------------------
def test_watchdog_clears_wedged_vcpu():
    plan = FaultPlan(
        seed=5,
        events=(FaultEvent(at_ns=100 * MS, site="vcpu_hang", magnitude=1.0),),
    )
    scenario = (
        ScenarioBuilder(seed=5, pcpus=4)
        .with_worker_vm(4)
        .with_config(Config.VANILLA)
        .with_faults(plan)
        .with_watchdog()
        .build()
    )
    scenario.start()
    scenario.run(1 * SEC)
    recovery = scenario.machine.faults.recovery
    assert recovery.hangs_injected == 1
    assert recovery.watchdog_clears == 1
    # Fully recovered: nothing hung, nothing pending, vCPU back online.
    watchdog = scenario.watchdog
    assert not watchdog.hung and not watchdog._clearing
    assert 1 not in scenario.worker_kernel.cpu_freeze_mask


def test_wedge_starves_fair_threads_until_cleared():
    """The hang is real: while wedged, the RT spinner owns the vCPU, so a
    fair thread pinned there makes no progress; after the watchdog clears
    the vCPU the thread runs again."""
    from repro.guest.actions import Compute

    plan = FaultPlan(
        seed=5,
        events=(FaultEvent(at_ns=50 * MS, site="vcpu_hang", magnitude=1.0),),
    )
    scenario = (
        ScenarioBuilder(seed=5, pcpus=4)
        .with_worker_vm(4)
        .with_config(Config.VANILLA)
        .with_faults(plan)
        .with_watchdog()
        .build()
    )
    kernel = scenario.worker_kernel

    def ticker():
        while True:
            yield Compute(1 * MS)

    victim = kernel.spawn(ticker(), name="victim", pinned_to=1)
    scenario.start()
    scenario.run(51 * MS)  # wedge landed at 50 ms
    exec_at_wedge = victim.exec_ns
    # The wedge holds until the next watchdog sweep (every 20 ms) releases
    # it, so 51-59 ms is inside the guaranteed-wedged window.
    scenario.run(59 * MS)
    starved_delta = victim.exec_ns - exec_at_wedge
    scenario.run(1 * SEC)  # long past the clear
    assert scenario.machine.faults.recovery.watchdog_clears == 1
    recovered_delta = victim.exec_ns - exec_at_wedge
    # Starvation while wedged, progress after the clear.
    assert starved_delta < 2 * MS
    assert recovered_delta > 100 * MS


def test_hang_on_frozen_vcpu_waits_for_surface():
    """A hang scripted onto a frozen vCPU stays latent until the vCPU
    comes back online (a frozen vCPU runs nothing, so there is nothing
    to wedge)."""
    plan = FaultPlan(
        seed=5,
        events=(FaultEvent(at_ns=30 * MS, site="vcpu_hang", magnitude=3.0),),
    )
    scenario = (
        ScenarioBuilder(seed=5, pcpus=4)
        .with_worker_vm(4)
        .with_config(Config.VANILLA)
        .with_faults(plan)
        .with_watchdog()
        .build()
    )
    scenario.start()
    scenario.run(20 * MS)
    scenario.watchdog.balancer.freeze(3)
    scenario.run(200 * MS)
    assert scenario.machine.faults.recovery.hangs_injected == 0  # latent
    scenario.watchdog.balancer.unfreeze(3)
    scenario.run(1 * SEC)
    recovery = scenario.machine.faults.recovery
    assert recovery.hangs_injected == 1
    assert recovery.watchdog_clears == 1


# ----------------------------------------------------------------------
# Balancer outage degradation
# ----------------------------------------------------------------------
def _vcpubal(plan, seed=9):
    scenario = (
        ScenarioBuilder(seed=seed, pcpus=4)
        .with_worker_vm(4)
        .with_config(Config.VANILLA)
        .with_faults(plan)
        .build()
    )
    return scenario, install_vcpubal(scenario, seed)


def test_balancer_outage_degrades_then_resyncs():
    plan = generate_plan(9, 2 * SEC, balancer_outages=2)
    scenario, manager = _vcpubal(plan)
    scenario.start()
    scenario.run(2 * SEC)
    recovery = scenario.machine.faults.recovery
    assert recovery.balancer_outages == 2
    assert recovery.naive_fallback_decisions >= 2
    assert recovery.balancer_resyncs == 2
    assert not manager._degraded  # healthy again at the end


def test_naive_fallback_unfreezes_conservatively():
    """During the outage the degraded manager only brings frozen vCPUs
    back online — it never freezes blind."""
    plan = FaultPlan(
        seed=9,
        events=(
            FaultEvent(
                at_ns=300 * MS, site="balancer_outage", duration_ns=500 * MS
            ),
        ),
    )
    scenario, manager = _vcpubal(plan)
    kernel = scenario.worker_kernel
    scenario.start()
    scenario.run(250 * MS)
    frozen_before = len(kernel.cpu_freeze_mask)
    scenario.run(900 * MS)
    recovery = scenario.machine.faults.recovery
    assert recovery.naive_fallback_decisions >= 1
    assert len(kernel.cpu_freeze_mask) <= frozen_before
    assert recovery.balancer_resyncs == 1
