"""Tests for the shared scenario builder."""

import pytest

from repro.experiments.setups import (
    ALL_CONFIGS,
    Config,
    ScenarioBuilder,
    install_hotplug_scaler,
    run_until_done,
)
from repro.units import MS


def test_consolidation_ratio_determines_background_count():
    builder = ScenarioBuilder(pcpus=8).with_worker_vm(4)
    scenario = builder.build()
    # 2 vCPUs/pCPU: 16 total vCPUs = 4 worker + 6x2 desktops.
    assert len(scenario.machine.domains) == 1 + 6
    total_vcpus = sum(len(d.vcpus) for d in scenario.machine.domains)
    assert total_vcpus == 16


def test_8vcpu_worker_gets_fewer_desktops():
    scenario = ScenarioBuilder(pcpus=8).with_worker_vm(8).build()
    assert len(scenario.machine.domains) == 1 + 4


def test_explicit_background_count_wins():
    scenario = ScenarioBuilder().with_worker_vm(4).with_background_vms(2).build()
    assert len(scenario.machine.domains) == 3


def test_weights_treat_all_vcpus_equally():
    scenario = ScenarioBuilder().with_worker_vm(4).build()
    for domain in scenario.machine.domains:
        assert domain.weight == 128 * len(domain.vcpus)


@pytest.mark.parametrize("config", ALL_CONFIGS)
def test_configs_wire_up_correctly(config):
    scenario = ScenarioBuilder().with_worker_vm(4).with_config(config).build()
    assert (scenario.daemon is not None) == config.uses_vscale
    assert scenario.worker_kernel.config.pv_spinlock == config.uses_pvlock
    # Algorithm 1 runs only where something reads it: the vScale daemon,
    # or the hotplug scaler, which installs it itself.
    assert (scenario.machine.vscale is not None) == config.uses_vscale
    install_hotplug_scaler(scenario, seed=1)
    assert scenario.machine.vscale is not None


@pytest.mark.parametrize("config", [Config.VANILLA, Config.VSCALE])
def test_algorithm1_ticks_only_in_vscale_cells(config):
    scenario = ScenarioBuilder(seed=5).with_config(config).build()
    fired = []
    scenario.machine.sim.dispatch_trace = lambda sim, event: fired.append(event.fn.__qualname__)
    scenario.start()
    scenario.run(100 * MS)
    ticks = fired.count("VScaleExtension._ticker")
    assert ticks == (10 if config.uses_vscale else 0)


def test_scenario_runs(single_run_budget=500 * MS):
    scenario = ScenarioBuilder(seed=5).with_config(Config.VSCALE).build()
    scenario.start()
    scenario.run(single_run_budget)
    assert scenario.machine.sim.now == single_run_budget


def test_run_until_done_times_out():
    scenario = ScenarioBuilder(seed=5).build()
    scenario.start()

    class NeverDone:
        done = False
        duration_ns = 0

    with pytest.raises(TimeoutError):
        run_until_done(scenario, NeverDone(), timeout_ns=200 * MS)
