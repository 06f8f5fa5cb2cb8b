"""Shared scheduler conformance suite.

Every scheduler registered in :mod:`repro.hypervisor.schedulers` is run
through the same properties: whatever the order of wakes, blocks,
freezes, yields and time advances, the scheduler must keep its
structural invariants; beyond that, the suite checks the behavioral
contract the rest of the stack relies on — work conservation, frozen
vCPUs never scheduled, weight-proportional allocation (for schedulers
that declare it) and cap enforcement (for schedulers that support it).

Adding a scheduler to the registry automatically enrolls it here.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.hypervisor.config import HostConfig
from repro.hypervisor.domain import VCPUState
from repro.hypervisor.machine import Machine
from repro.hypervisor.schedulers import available, get
from repro.units import MS, SEC
from tests.conftest import StackBuilder, busy

ALL_SCHEDULERS = available()


class _PassiveGuest:
    """A guest that never idles its vCPUs (keeps them burning CPU)."""

    def __init__(self, domain):
        domain.attach_guest(self)

    def vcpu_started(self, vcpu):
        pass

    def vcpu_stopped(self, vcpu):
        pass

    def deliver_irq(self, vcpu, irq):
        pass


def build(scheduler: str, domains=2, vcpus=2, pcpus=2, seed=1):
    machine = Machine(HostConfig(pcpus=pcpus, scheduler=scheduler), seed=seed)
    for index in range(domains):
        domain = machine.create_domain(f"d{index}", vcpus=vcpus)
        _PassiveGuest(domain)
    machine.start()
    return machine


def all_vcpus(machine):
    return [v for d in machine.domains for v in d.vcpus]


def check_invariants(machine):
    # pCPU <-> vCPU agreement.
    currents = []
    for pcpu in machine.pool:
        if pcpu.current is not None:
            assert pcpu.current.state is VCPUState.RUNNING
            assert pcpu.current.pcpu is pcpu
            currents.append(pcpu.current)
    assert len(currents) == len(set(currents)), "vCPU on two pCPUs"
    for vcpu in all_vcpus(machine):
        if vcpu.state is VCPUState.RUNNING:
            assert vcpu in currents
        assert vcpu.state is not VCPUState.FROZEN or vcpu.pcpu is None
        # Time accounting closes at all times.
        vcpu.timer.flush(machine.sim.now)
        assert sum(vcpu.timer.totals.values()) == machine.sim.now


operations = st.lists(
    st.tuples(
        st.sampled_from(["wake", "block", "mark_freeze", "unfreeze", "yield", "advance"]),
        st.integers(min_value=0, max_value=3),  # vCPU selector
        st.integers(min_value=1, max_value=40),  # time advance in ms
    ),
    min_size=1,
    max_size=40,
)


@pytest.mark.parametrize("scheduler", ALL_SCHEDULERS)
@settings(max_examples=40, deadline=None)
@given(ops=operations, seed=st.integers(0, 100))
def test_random_transitions_keep_invariants(scheduler, ops, seed):
    machine = build(scheduler, seed=seed)
    vcpus = all_vcpus(machine)
    for op, selector, advance_ms in ops:
        vcpu = vcpus[selector % len(vcpus)]
        if op == "wake":
            if vcpu.state is VCPUState.BLOCKED:
                machine.hyp_wake(vcpu)
        elif op == "block":
            machine.scheduler.vcpu_block(vcpu)
        elif op == "mark_freeze":
            machine.hyp_mark_freeze(vcpu)
        elif op == "unfreeze":
            machine.hyp_unfreeze_vcpu(vcpu)
        elif op == "yield":
            machine.hyp_yield(vcpu)
        elif op == "advance":
            machine.run(until=machine.sim.now + advance_ms * MS)
        # Drain the deferred reschedules before checking.
        machine.run(until=machine.sim.now + 1)
        check_invariants(machine)


@pytest.mark.parametrize("scheduler", ALL_SCHEDULERS)
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 1000))
def test_always_runnable_vcpus_never_starve(scheduler, seed):
    """With permanently runnable vCPUs, everyone makes progress."""
    machine = build(scheduler, domains=3, vcpus=1, pcpus=1, seed=seed)
    for vcpu in all_vcpus(machine):
        if vcpu.state is VCPUState.BLOCKED:
            machine.hyp_wake(vcpu)
    machine.run(until=600 * MS)
    for vcpu in all_vcpus(machine):
        vcpu.timer.flush(machine.sim.now)
        run = vcpu.timer.total(VCPUState.RUNNING.value)
        assert run > 50 * MS, f"{vcpu.name} starved ({run}ns)"


def run_shares(scheduler, weights, pcpus=2, vcpus_each=2, duration=3 * SEC, caps=None):
    """Run all-busy guests and return each domain's consumed time."""
    builder = StackBuilder(pcpus=pcpus, scheduler=scheduler)
    for index, weight in enumerate(weights):
        cap = caps[index] if caps else None
        kernel = builder.guest(f"vm{index}", vcpus=vcpus_each, weight=weight, cap=cap)
        for t in range(vcpus_each):
            kernel.spawn(busy(10 * duration), f"busy{t}")
    machine = builder.start()
    machine.run(until=duration)
    totals = {}
    for domain in machine.domains:
        totals[domain.name] = domain.total_run_ns(machine.sim.now)
    return totals, machine


@pytest.mark.parametrize("scheduler", ALL_SCHEDULERS)
def test_work_conservation(scheduler):
    """No pCPU idles while runnable vCPUs are backlogged."""
    totals, machine = run_shares(scheduler, [256, 256], duration=2 * SEC)
    idle = sum(p.flush_idle(machine.sim.now) for p in machine.pool)
    capacity = len(machine.pool) * 2 * SEC
    assert idle <= capacity * 0.03, f"pool idled {idle / 1e9:.3f}s under load"
    assert sum(totals.values()) >= capacity * 0.97


@pytest.mark.parametrize("scheduler", ALL_SCHEDULERS)
def test_frozen_vcpu_is_never_scheduled(scheduler):
    """A completed freeze takes the vCPU entirely out of dispatch."""
    machine = build(scheduler, domains=2, vcpus=2, pcpus=2)
    for vcpu in all_vcpus(machine):
        if vcpu.state is VCPUState.BLOCKED:
            machine.hyp_wake(vcpu)
    machine.run(until=100 * MS)
    victim = machine.domains[0].vcpus[1]
    machine.hyp_mark_freeze(victim)
    machine.scheduler.vcpu_block(victim)
    assert victim.state is VCPUState.FROZEN
    # A completed freeze surrenders the credit balance at once, and a
    # frozen vCPU earns none back.
    assert victim.credits == 0
    victim.timer.flush(machine.sim.now)
    frozen_at_run = victim.timer.total(VCPUState.RUNNING.value)
    for _ in range(30):
        machine.run(until=machine.sim.now + 10 * MS)
        assert victim.state is VCPUState.FROZEN
        for pcpu in machine.pool:
            assert pcpu.current is not victim
    assert victim.credits == 0
    victim.timer.flush(machine.sim.now)
    assert victim.timer.total(VCPUState.RUNNING.value) == frozen_at_run
    # Thawing puts it back into rotation.
    machine.hyp_unfreeze_vcpu(victim)
    machine.run(until=machine.sim.now + 200 * MS)
    victim.timer.flush(machine.sim.now)
    assert victim.timer.total(VCPUState.RUNNING.value) > frozen_at_run


@pytest.mark.parametrize("scheduler", ALL_SCHEDULERS)
def test_weight_proportional_allocation(scheduler):
    """2:1 weights give 2:1 CPU time, for schedulers that promise it."""
    if not get(scheduler).weight_proportional:
        pytest.skip(f"{scheduler} does not declare weight proportionality")
    totals, _ = run_shares(scheduler, [512, 256], duration=3 * SEC)
    assert totals["vm0"] / totals["vm1"] == pytest.approx(2.0, rel=0.15)


@pytest.mark.parametrize("scheduler", ALL_SCHEDULERS)
def test_equal_weights_equal_shares(scheduler):
    totals, _ = run_shares(scheduler, [256, 256], duration=2 * SEC)
    assert totals["vm0"] == pytest.approx(totals["vm1"], rel=0.10)


@pytest.mark.parametrize("scheduler", ALL_SCHEDULERS)
def test_cap_enforcement(scheduler):
    """A 0.5-pCPU cap bounds consumption, for schedulers that support it."""
    if not get(scheduler).supports_caps:
        pytest.skip(f"{scheduler} does not support caps")
    totals, _ = run_shares(scheduler, [256, 256], caps=[0.5, None], duration=2 * SEC)
    # Soft cap: allow slop because parked vCPUs still soak idle cycles.
    assert totals["vm0"] <= 1.3 * SEC
    assert totals["vm1"] >= 2.5 * SEC
