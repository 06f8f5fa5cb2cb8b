"""Tests for the in-hypervisor VScaleExtension ticker."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import extendability
from repro.hypervisor.config import HostConfig
from repro.hypervisor.machine import Machine
from repro.sanitize import InvariantViolation
from repro.units import MS, SEC
from tests.conftest import StackBuilder, busy
from tests.core.ticker_oracle import ReferenceTicker


def build(pcpus=2):
    builder = StackBuilder(pcpus=pcpus)
    worker = builder.guest("worker", vcpus=2)
    rival = builder.guest("rival", vcpus=2)
    extension = builder.machine.install_vscale()
    return builder, worker, rival, extension


def test_install_is_idempotent():
    builder, *_ = build()
    first = builder.machine.vscale
    assert builder.machine.install_vscale() is first
    machine = builder.start()
    assert machine.install_vscale() is first


def test_install_after_start_is_rejected():
    # Only start() arms the ticker: an extension installed later would
    # never publish, and reads would keep serving the boot-time optimism.
    builder = StackBuilder(pcpus=2)
    builder.guest("worker", vcpus=2)
    machine = builder.start()
    with pytest.raises(RuntimeError):
        machine.install_vscale()
    assert machine.vscale is None


def test_ticker_publishes_every_period():
    builder, worker, rival, extension = build()
    machine = builder.start()
    machine.run(until=100 * MS)
    assert worker.domain.extendability_ns is not None
    assert worker.domain.optimal_vcpus is not None
    assert extension.last_results


def test_up_vm_skipped_but_participates():
    builder = StackBuilder(pcpus=2)
    smp = builder.guest("smp", vcpus=2)
    up = builder.guest("up", vcpus=1)
    for index in range(2):
        smp.spawn(busy(10 * SEC), f"s{index}")
    up.spawn(busy(10 * SEC), "u0")
    extension = builder.machine.install_vscale()
    machine = builder.start()
    machine.run(until=500 * MS)
    # The UP VM's struct is never written (no room to scale)...
    assert up.domain.extendability_ns is None
    # ...but it is present in the calculation as a competitor.
    assert extension.last_results["up"].is_competitor


def test_read_before_first_tick_reports_full_optimism():
    builder, worker, rival, extension = build()
    machine = builder.machine
    machine.start()
    ext, n = machine.hyp_read_extendability(worker.domain)
    assert ext == machine.config.pcpus * machine.config.vscale_period_ns
    assert n == 2  # min(provisioned, pcpus)


def test_consumption_smoothing_converges():
    builder, worker, rival, extension = build()
    for index in range(2):
        worker.spawn(busy(30 * SEC), f"w{index}")
        rival.spawn(busy(30 * SEC), f"r{index}")
    machine = builder.start()
    machine.run(until=2 * SEC)
    # Two equal saturated VMs on 2 pCPUs: extendability ~1 pCPU each.
    period = machine.config.vscale_period_ns
    assert worker.domain.extendability_ns == pytest.approx(period, rel=0.15)
    assert worker.domain.optimal_vcpus == 1


def test_reconfiguration_bookkeeping():
    builder, worker, rival, extension = build()
    machine = builder.start()
    machine.run(until=50 * MS)
    machine.hyp_mark_freeze(worker.domain.vcpus[1])
    assert extension.reconfigurations.get("worker") == 1
    machine.hyp_unfreeze_vcpu(worker.domain.vcpus[1])
    assert extension.reconfigurations.get("worker") == 2


def test_sanitizer_checks_every_period():
    builder, worker, rival, extension = build()
    for index in range(2):
        worker.spawn(busy(10 * SEC), f"w{index}")
    sanitizer = builder.machine.install_sanitizer()
    machine = builder.start()
    machine.run(until=200 * MS)
    assert sanitizer.stats["extendability"] == 200 * MS // machine.config.vscale_period_ns


def test_sanitizer_catches_a_corrupted_pass(monkeypatch):
    real = extendability._algorithm1

    def wrong_count(*args):
        return [(fair, ext, n + 2, competitor) for fair, ext, n, competitor in real(*args)]

    monkeypatch.setattr(extendability, "_algorithm1", wrong_count)
    builder, worker, rival, extension = build()
    builder.machine.install_sanitizer()
    machine = builder.start()
    with pytest.raises(InvariantViolation) as caught:
        machine.run(until=50 * MS)
    assert caught.value.checker == "extendability"
    assert caught.value.time_ns == machine.config.vscale_period_ns


def test_result_objects_built_only_on_demand(monkeypatch):
    built = []
    for cls in (extendability.VMUsage, extendability.ExtendabilityResult):

        def init(self, *args, _init=cls.__init__, **kwargs):
            built.append(type(self).__name__)
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", init)
    builder, worker, rival, extension = build()
    machine = builder.start()
    machine.run(until=100 * MS)
    periods = 100 * MS // machine.config.vscale_period_ns
    domains = len(machine.domains)
    # REPRO_SANITIZE=1 installs a sanitizer, which gets both views per period.
    per_period = 0 if machine.sanitizer is None else 2 * domains
    assert len(built) == per_period * periods
    assert len(extension.last_results) == domains
    assert built[per_period * periods:] == ["ExtendabilityResult"] * domains


# ----------------------------------------------------------------------
# Differential: the ticker against the per-VMUsage reference loop
# ----------------------------------------------------------------------
PERIOD = HostConfig().vscale_period_ns

domain_specs = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=4),  # vCPUs (1 = UP domain)
        st.integers(min_value=1, max_value=1024),  # weight
        st.none() | st.floats(min_value=0.1, max_value=16.0) | st.integers(1, 16),  # cap
        st.just(0.0) | st.floats(min_value=0.0, max_value=4.0) | st.integers(0, 4),  # reservation
    ),
    min_size=2,
    max_size=12,
)


def published(machine):
    return [
        (d.extendability_ns, d.optimal_vcpus, d.extendability_published_ns)
        for d in machine.domains
    ]


def ewma_bits(ticker):
    return [(name, value.hex()) for name, value in ticker._ewma.items()]


@given(domain_specs, st.integers(min_value=1, max_value=16), st.data())
@settings(max_examples=60, deadline=None)
def test_ticker_matches_reference_loop(domains, pcpus, data):
    hosts = []
    for _ in range(2):
        machine = Machine(HostConfig(pcpus=pcpus))
        for index, (vcpus, weight, cap, reservation) in enumerate(domains):
            machine.create_domain(f"vm{index}", vcpus, weight=weight, cap=cap, reservation=reservation)
        hosts.append(machine)
    changed, reference = hosts
    extension = changed.install_vscale()
    oracle = ReferenceTicker(reference)
    for _ in range(data.draw(st.integers(min_value=1, max_value=6))):
        now = changed.sim.now + data.draw(st.integers(min_value=1, max_value=3 * PERIOD))
        for machine in hosts:
            machine.sim.run(until=now)
        # Random consumption plus in-flight run intervals; an interval that
        # starts later than the previous sample's makes the window negative.
        for index, (vcpus, *_) in enumerate(domains):
            burned = data.draw(st.integers(min_value=0, max_value=2 * vcpus * PERIOD))
            starts = data.draw(st.lists(st.none() | st.integers(0, now), min_size=vcpus, max_size=vcpus))
            for machine in hosts:
                domain = machine.domains[index]
                domain.total_consumed_ns += burned
                for vcpu, start in zip(domain.vcpus, starts):
                    vcpu.run_started_at = start
        extension.recompute()
        oracle.recompute()
        assert published(changed) == published(reference)
        assert ewma_bits(extension) == ewma_bits(oracle)
        assert extension._last_consumed == oracle._last_consumed
        assert list(extension.last_results.items()) == list(oracle.last_results.items())
        _, outcomes = extension._last_pass
        assert [repr(o) for o in outcomes] == [repr(o) for o in oracle.last_shares.values()]
