"""End-to-end integration tests across the whole stack."""

import pytest

from repro.core.daemon import VScaleDaemon
from repro.experiments.setups import Config, ScenarioBuilder, run_until_done
from repro.hypervisor.domain import VCPUState
from repro.sim.rng import SeedSequenceFactory
from repro.units import MS, SEC
from repro.workloads.npb import NPBApp, NPB_PROFILES
from repro.workloads.openmp import SPINCOUNT_ACTIVE
from tests.conftest import StackBuilder, busy


class TestAccountingInvariants:
    def test_vcpu_time_is_conserved(self):
        """run + wait + blocked + frozen == wall clock, for every vCPU."""
        scenario = ScenarioBuilder(seed=7).with_config(Config.VSCALE).build()
        scenario.start()
        scenario.run(3 * SEC)
        now = scenario.machine.sim.now
        for domain in scenario.machine.domains:
            for vcpu in domain.vcpus:
                vcpu.timer.flush(now)
                total = sum(vcpu.timer.totals.values())
                assert total == now, vcpu.name

    def test_pool_time_is_conserved(self):
        """Sum of domain run times + pool idle == pCPUs x wall clock."""
        scenario = ScenarioBuilder(seed=7).with_config(Config.VANILLA).build()
        scenario.start()
        scenario.run(3 * SEC)
        machine = scenario.machine
        now = machine.sim.now
        consumed = sum(d.total_run_ns(now) for d in machine.domains)
        idle = machine.pool_idle_ns()
        capacity = machine.config.pcpus * now
        assert consumed + idle == pytest.approx(capacity, rel=0.001)

    def test_no_thread_ever_rests_on_frozen_vcpu(self):
        scenario = ScenarioBuilder(seed=7).with_config(Config.VSCALE).build()
        scenario.start()
        kernel = scenario.worker_kernel
        for index in range(4):
            kernel.spawn(busy(30 * SEC), f"w{index}")
        for step in range(1, 40):
            scenario.run(step * 100 * MS)
            for frozen_index in kernel.cpu_freeze_mask:
                vcpu = kernel.domain.vcpus[frozen_index]
                if vcpu.state is VCPUState.FROZEN:
                    assert kernel.runqueues[frozen_index].load() == 0

    def test_determinism_same_seed_same_result(self):
        durations = []
        for _ in range(2):
            scenario = ScenarioBuilder(seed=11).with_config(Config.VSCALE).build()
            scenario.start()
            scenario.run(2 * SEC)
            seeds = SeedSequenceFactory(11)
            app = NPBApp(
                scenario.worker_kernel,
                NPB_PROFILES["cg"],
                SPINCOUNT_ACTIVE,
                seeds.generator("npb"),
            )
            app.launch()
            durations.append(run_until_done(scenario, app))
        assert durations[0] == durations[1]

    def test_different_seeds_differ(self):
        durations = []
        for seed in (11, 12):
            scenario = ScenarioBuilder(seed=seed).with_config(Config.VANILLA).build()
            scenario.start()
            scenario.run(2 * SEC)
            seeds = SeedSequenceFactory(seed)
            app = NPBApp(
                scenario.worker_kernel,
                NPB_PROFILES["ep"],
                SPINCOUNT_ACTIVE,
                seeds.generator("npb"),
            )
            app.launch()
            durations.append(run_until_done(scenario, app))
        assert durations[0] != durations[1]


class TestCrossLayerBehaviour:
    def test_vscale_daemon_survives_long_idle(self):
        """The daemon keeps polling with an idle guest without leaking
        events or drifting."""
        builder = StackBuilder(pcpus=2)
        kernel = builder.guest("vm", vcpus=2)
        builder.machine.install_vscale()
        daemon = VScaleDaemon(kernel)
        daemon.install()
        machine = builder.start()
        machine.run(until=10 * SEC)
        # ~1000 polls at the 10ms period.
        assert daemon.decisions == pytest.approx(1000, rel=0.05)

    def test_frozen_vcpu_earns_nothing_siblings_gain(self):
        builder = StackBuilder(pcpus=2)
        vm = builder.guest("vm", vcpus=2)
        rival = builder.guest("rival", vcpus=2)
        for index in range(2):
            vm.spawn(busy(60 * SEC), f"v{index}")
            rival.spawn(busy(60 * SEC), f"r{index}")
        machine = builder.start()
        machine.run(until=1 * SEC)
        from repro.core.balancer import VScaleBalancer

        VScaleBalancer(vm).freeze(1)
        machine.run(until=machine.sim.now + 100 * MS)
        frozen = vm.domain.vcpus[1]
        assert frozen.state is VCPUState.FROZEN
        frozen.timer.flush(machine.sim.now)
        frozen_run_before = frozen.timer.total(VCPUState.RUNNING.value)
        start = machine.sim.now
        base = vm.domain.total_run_ns(start)
        machine.run(until=start + 2 * SEC)
        gained = vm.domain.total_run_ns(machine.sim.now) - base
        # Per-VM weight: the domain still deserves half the 2-pCPU pool —
        # one full pCPU, now concentrated on the single active vCPU.
        assert gained == pytest.approx(2 * SEC, rel=0.1)
        frozen.timer.flush(machine.sim.now)
        assert frozen.timer.total(VCPUState.RUNNING.value) == frozen_run_before

    def test_end_to_end_scenario_with_all_configs(self):
        """Every configuration runs the same tiny app successfully."""
        from repro.experiments.setups import ALL_CONFIGS

        for config in ALL_CONFIGS:
            scenario = ScenarioBuilder(seed=5).with_config(config).build()
            scenario.start()
            scenario.run(1 * SEC)
            seeds = SeedSequenceFactory(5)
            from dataclasses import replace

            profile = replace(NPB_PROFILES["is"], iterations=4)
            app = NPBApp(
                scenario.worker_kernel,
                profile,
                SPINCOUNT_ACTIVE,
                seeds.generator("npb"),
                kernel_lock=scenario.worker_kernel_lock,
            )
            app.launch()
            duration = run_until_done(scenario, app)
            assert duration > 0
