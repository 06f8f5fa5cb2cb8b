"""Tests for the vScale user-space daemon."""

import pytest

from repro.core.daemon import DaemonConfig, VScaleDaemon
from repro.units import MS, SEC
from tests.conftest import StackBuilder, busy


def build_contended(daemon_config=None, worker_vcpus=4, pcpus=4):
    """A worker VM plus a rival VM that saturates half the pool."""
    builder = StackBuilder(pcpus=pcpus)
    worker = builder.guest("worker", vcpus=worker_vcpus, weight=256)
    rival = builder.guest("rival", vcpus=pcpus, weight=256)
    builder.machine.install_vscale()
    daemon = VScaleDaemon(worker, daemon_config)
    daemon.install()
    return builder, worker, rival, daemon


class TestInstall:
    def test_daemon_thread_is_rt_and_pinned(self):
        _, worker, _, daemon = build_contended()
        assert daemon.thread is not None
        assert daemon.thread.rt
        assert daemon.thread.pinned_to == 0

    def test_double_install_rejected(self):
        _, worker, _, daemon = build_contended()
        with pytest.raises(RuntimeError):
            daemon.install()


class TestScaling:
    def test_shrinks_under_contention(self):
        builder, worker, rival, daemon = build_contended()
        for index in range(4):
            rival.spawn(busy(30 * SEC), f"r{index}")
        for index in range(4):
            worker.spawn(busy(30 * SEC), f"w{index}")
        machine = builder.start()
        machine.run(until=2 * SEC)
        # Equal weights on a 4-pCPU pool: the worker deserves ~2 pCPUs.
        assert worker.online_vcpus <= 3
        assert daemon.reconfigurations >= 1

    def test_expands_when_rival_idles(self):
        builder, worker, rival, daemon = build_contended()
        for index in range(4):
            rival.spawn(busy(1 * SEC), f"r{index}")  # rival stops after 1s
        for index in range(4):
            worker.spawn(busy(60 * SEC), f"w{index}")
        machine = builder.start()
        machine.run(until=1 * SEC)
        shrunk = worker.online_vcpus
        machine.run(until=4 * SEC)
        assert worker.online_vcpus > shrunk or worker.online_vcpus == 4
        assert worker.online_vcpus == 4

    def test_vcpu0_always_online(self):
        builder, worker, rival, daemon = build_contended()
        for index in range(8):
            rival.spawn(busy(30 * SEC), f"r{index}")
        machine = builder.start()
        machine.run(until=2 * SEC)
        assert 0 not in worker.cpu_freeze_mask
        assert worker.online_vcpus >= 1

    def test_disabled_daemon_never_reconfigures(self):
        builder, worker, rival, daemon = build_contended()
        daemon.disable()
        for index in range(4):
            rival.spawn(busy(10 * SEC), f"r{index}")
        for index in range(4):
            worker.spawn(busy(10 * SEC), f"w{index}")
        machine = builder.start()
        machine.run(until=2 * SEC)
        assert daemon.reconfigurations == 0
        assert worker.online_vcpus == 4

    def test_trace_records_changes(self):
        builder, worker, rival, daemon = build_contended()
        for index in range(4):
            rival.spawn(busy(30 * SEC), f"r{index}")
        for index in range(4):
            worker.spawn(busy(30 * SEC), f"w{index}")
        machine = builder.start()
        machine.run(until=2 * SEC)
        trace = daemon.vcpu_trace()
        assert trace
        times = [t for t, _ in trace]
        assert times == sorted(times)
        assert all(1 <= n <= 4 for _, n in trace)


class TestRounding:
    @pytest.mark.parametrize(
        "mode,ext_pcpus,expected",
        [
            ("ceil", 2.1, 3),
            ("ceil", 2.0, 2),
            ("floor", 2.9, 2),
            ("conservative", 2.5, 2),
            ("conservative", 2.85, 3),
            ("conservative", 0.2, 1),
        ],
    )
    def test_round_modes(self, mode, ext_pcpus, expected):
        builder, worker, rival, daemon = build_contended(
            DaemonConfig(round_mode=mode)
        )
        builder.start()
        period = builder.machine.config.vscale_period_ns
        ext = round(ext_pcpus * period)
        n_opt = -(-ext // period)  # ceil
        assert daemon._round_target(ext, n_opt) == expected

    def test_unknown_mode_raises(self):
        builder, worker, rival, daemon = build_contended(
            DaemonConfig(round_mode="banana")
        )
        builder.start()
        with pytest.raises(ValueError):
            daemon._round_target(10 * MS, 1)


class TestHysteresis:
    def test_shrink_needs_patience(self):
        config = DaemonConfig(shrink_patience=3)
        builder, worker, rival, daemon = build_contended(config)
        builder.start()
        # Simulate three successive decisions asking for fewer vCPUs.
        assert daemon._decide(2) == []
        assert daemon._decide(2) == []
        steps = daemon._decide(2)
        assert steps and all(freeze for _, freeze in steps)

    def test_growth_is_immediate(self):
        builder, worker, rival, daemon = build_contended()
        builder.start()
        worker.cpu_freeze_mask.add(3)
        steps = daemon._decide(4)
        assert steps == [(3, False)]
