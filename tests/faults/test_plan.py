"""Tests for FaultConfig / FaultEvent / FaultPlan validation and shape."""

from dataclasses import replace

import pytest

from repro.faults import NO_FAULTS, FaultConfig, FaultEvent, FaultPlan
from repro.units import MS


class TestFaultConfig:
    def test_default_injects_nothing(self):
        config = FaultConfig()
        assert not config.any_enabled

    @pytest.mark.parametrize(
        "field", [
            "ipi_drop_rate", "ipi_delay_rate", "channel_fail_rate",
            "channel_stale_rate", "daemon_jitter_rate", "daemon_stall_rate",
            "freeze_fail_rate", "dom0_burst_rate",
        ],
    )
    def test_rates_must_be_probabilities(self, field):
        with pytest.raises(ValueError, match=field):
            FaultConfig(**{field: 1.5})
        with pytest.raises(ValueError, match=field):
            FaultConfig(**{field: -0.1})
        assert getattr(FaultConfig(**{field: 0.5}), field) == 0.5

    @pytest.mark.parametrize(
        "field,bad", [
            ("ipi_delay_mean_ns", 0),
            ("daemon_jitter_mean_ns", -1),
            ("daemon_stall_periods", 0),
            ("dom0_burst_factor", 0.5),
        ],
    )
    def test_magnitudes_validated(self, field, bad):
        with pytest.raises(ValueError, match=field):
            FaultConfig(**{field: bad})

    def test_scaled_profile(self):
        config = FaultConfig.scaled(0.1)
        assert config.any_enabled
        assert config.channel_fail_rate == pytest.approx(0.1)
        # Whole-period faults are derated.
        assert config.ipi_drop_rate == pytest.approx(0.05)
        assert config.daemon_stall_rate == pytest.approx(0.025)

    def test_scaled_zero_is_inert(self):
        assert not FaultConfig.scaled(0.0).any_enabled

    def test_scaled_overrides(self):
        config = FaultConfig.scaled(0.1, freeze_fail_rate=0.9)
        assert config.freeze_fail_rate == pytest.approx(0.9)

    def test_scaled_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            FaultConfig.scaled(1.5)


class TestFaultEvent:
    def test_validation(self):
        with pytest.raises(ValueError):
            FaultEvent(at_ns=-1, site="daemon_stall")
        with pytest.raises(ValueError):
            FaultEvent(at_ns=0, site="daemon_stall", duration_ns=-1)
        with pytest.raises(ValueError, match="unknown scripted fault site"):
            FaultEvent(at_ns=0, site="meteor_strike")


class TestFaultPlan:
    def test_no_faults_is_inactive(self):
        assert not NO_FAULTS.active

    def test_events_alone_activate(self):
        plan = FaultPlan(events=(FaultEvent(at_ns=5 * MS, site="dom0_burst"),))
        assert plan.active

    def test_events_are_sorted(self):
        plan = FaultPlan(
            events=(
                FaultEvent(at_ns=20 * MS, site="dom0_burst"),
                FaultEvent(at_ns=5 * MS, site="daemon_stall"),
            )
        )
        assert [e.at_ns for e in plan.events] == [5 * MS, 20 * MS]

    def test_with_seed(self):
        plan = FaultPlan(FaultConfig.scaled(0.1), seed=1)
        reseeded = replace(plan, seed=2)
        assert reseeded.seed == 2
        assert reseeded.config is plan.config
