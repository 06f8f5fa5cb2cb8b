"""Tests for the scheduler registry and selection plumbing."""

import pytest

from repro.hypervisor.config import HostConfig
from repro.hypervisor.machine import Machine
from repro.hypervisor.schedulers import (
    DEFAULT_SCHEDULER,
    ENV_VAR,
    CfsScheduler,
    Credit2Scheduler,
    CreditScheduler,
    RoundRobinScheduler,
    Scheduler,
    VrtScheduler,
    available,
    create,
    get,
    register,
    resolve_name,
)


class TestRegistry:
    def test_all_schedulers_registered(self):
        assert set(available()) >= {"cfs", "credit", "credit2", "rr", "vrt"}

    def test_available_is_sorted(self):
        assert list(available()) == sorted(available())

    def test_get_returns_classes(self):
        assert get("credit") is CreditScheduler
        assert get("credit2") is Credit2Scheduler
        assert get("cfs") is CfsScheduler
        assert get("rr") is RoundRobinScheduler
        assert get("vrt") is VrtScheduler

    def test_get_unknown_name_lists_available(self):
        with pytest.raises(ValueError, match="credit"):
            get("nope")

    def test_register_rejects_duplicate_name(self):
        with pytest.raises(ValueError, match="already registered"):

            @register
            class Impostor(Scheduler):  # pragma: no cover - never instantiated
                name = "credit"

    def test_register_rejects_empty_name(self):
        with pytest.raises(ValueError):

            @register
            class Nameless(Scheduler):  # pragma: no cover - never instantiated
                pass

    def test_capability_flags(self):
        assert CreditScheduler.supports_caps
        assert CreditScheduler.uses_credit_accounting
        assert CreditScheduler.weight_proportional
        assert not RoundRobinScheduler.weight_proportional
        for cls in (Credit2Scheduler, CfsScheduler, VrtScheduler):
            assert cls.weight_proportional
            assert not cls.uses_credit_accounting


class TestResolution:
    def test_default_is_credit(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        assert DEFAULT_SCHEDULER == "credit"
        assert resolve_name(None) == "credit"

    def test_explicit_name_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "rr")
        assert resolve_name("cfs") == "cfs"

    def test_env_applies_when_unspecified(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "rr")
        assert resolve_name(None) == "rr"

    def test_env_with_unknown_name_raises(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "nope")
        with pytest.raises(ValueError):
            resolve_name(None)


class TestWiring:
    def test_create_builds_named_scheduler(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        machine = Machine(HostConfig(pcpus=2), seed=1)
        assert type(create("rr", machine)) is RoundRobinScheduler

    @pytest.mark.parametrize("name", available())
    def test_machine_uses_configured_scheduler(self, name):
        machine = Machine(HostConfig(pcpus=2, scheduler=name), seed=1)
        assert type(machine.scheduler) is get(name)
        assert machine.scheduler.name == name

    def test_machine_default_scheduler_is_credit(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        machine = Machine(HostConfig(pcpus=2), seed=1)
        assert type(machine.scheduler) is CreditScheduler

    def test_env_selects_machine_scheduler(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "cfs")
        machine = Machine(HostConfig(pcpus=2), seed=1)
        assert type(machine.scheduler) is CfsScheduler

    def test_host_config_accepts_scheduler_config(self):
        host = HostConfig(pcpus=2, scheduler="credit2")
        assert host.scheduler == "credit2"

    def test_host_config_rejects_unknown_scheduler(self):
        with pytest.raises(ValueError):
            HostConfig(pcpus=2, scheduler="nope")
