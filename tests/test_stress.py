"""Stress and fuzz tests: randomized workload mixtures and reconfiguration
churn must never violate the stack's structural invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.balancer import VScaleBalancer
from repro.guest.threads import ThreadState
from repro.hypervisor.domain import VCPUState
from repro.units import MS, SEC
from repro.workloads.synthetic import ForkJoinSpec, LoadMix
from tests.conftest import StackBuilder


def check_invariants(builder, now):
    """Structural invariants that must hold at any quiescent point."""
    machine = builder.machine
    # 1. A pCPU's current vCPU must believe it is RUNNING on that pCPU.
    for pcpu in machine.pool:
        if pcpu.current is not None:
            assert pcpu.current.state is VCPUState.RUNNING
            assert pcpu.current.pcpu is pcpu
    # 2. Every RUNNING vCPU is some pCPU's current.
    currents = {pcpu.current for pcpu in machine.pool if pcpu.current}
    for domain in machine.domains:
        for vcpu in domain.vcpus:
            if vcpu.state is VCPUState.RUNNING:
                assert vcpu in currents
    # 3. vCPU time accounting closes.
    for domain in machine.domains:
        for vcpu in domain.vcpus:
            vcpu.timer.flush(now)
            assert sum(vcpu.timer.totals.values()) == now
    # 4. Guest-side: no duplicate thread placement; frozen queues empty.
    for kernel in builder.kernels.values():
        seen = set()
        for rq in kernel.runqueues:
            for thread in rq.ready + ([rq.current] if rq.current else []):
                assert thread.tid not in seen, "thread on two runqueues"
                seen.add(thread.tid)
        for index in kernel.cpu_freeze_mask:
            vcpu = kernel.domain.vcpus[index]
            if vcpu.state is VCPUState.FROZEN:
                assert kernel.runqueues[index].load() == 0
        # 5. Live threads are consistent with their queues.
        for thread in kernel.threads:
            if thread.state is ThreadState.READY:
                assert thread in kernel.runqueues[thread.vcpu_index].ready


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    hogs=st.integers(0, 3),
    waves=st.integers(0, 2),
    fj_threads=st.integers(1, 4),
    fj_spin=st.sampled_from([0, 300_000, 10**12]),
)
def test_random_mixtures_preserve_invariants(seed, hogs, waves, fj_threads, fj_spin):
    builder = StackBuilder(pcpus=2, seed=seed)
    kernel = builder.guest("vm", vcpus=2)
    rival = builder.guest("rival", vcpus=2)
    rng = np.random.default_rng(seed)
    mix = LoadMix(kernel, rng)
    if hogs:
        mix.add_hogs(hogs, total_ns=300 * MS)
    if waves:
        mix.add_on_off(waves, busy_ns=40 * MS, idle_ns=60 * MS)
    mix.add_fork_join(
        ForkJoinSpec(
            threads=fj_threads, iterations=4, phase_ns=5 * MS, spin_budget_ns=fj_spin
        )
    )
    LoadMix(rival, rng).add_hogs(2, total_ns=400 * MS)
    machine = builder.start()
    for step in range(1, 6):
        machine.run(until=step * 300 * MS)
        check_invariants(builder, machine.sim.now)


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    freeze_order=st.permutations([1, 2, 3]),
    churn=st.integers(1, 6),
)
def test_freeze_churn_preserves_invariants(seed, freeze_order, churn):
    """Random freeze/unfreeze sequences against a busy guest."""
    builder = StackBuilder(pcpus=4, seed=seed)
    kernel = builder.guest("vm", vcpus=4)
    rng = np.random.default_rng(seed)
    LoadMix(kernel, rng).add_hogs(4, total_ns=30 * SEC)
    machine = builder.start()
    machine.run(until=50 * MS)
    balancer = VScaleBalancer(kernel)
    for round_index in range(churn):
        for index in freeze_order:
            balancer.freeze(index)
            machine.run(until=machine.sim.now + 10 * MS)
        check_invariants(builder, machine.sim.now)
        for index in reversed(freeze_order):
            balancer.unfreeze(index)
            machine.run(until=machine.sim.now + 10 * MS)
        check_invariants(builder, machine.sim.now)
    # All four hogs still alive and placed.
    alive = [t for t in kernel.threads if not t.done]
    assert len(alive) == 4


def test_long_run_event_queue_does_not_leak():
    """After the workload drains, the pending event count stays bounded
    (ticks and daemon timers only — no orphaned action events)."""
    builder = StackBuilder(pcpus=2, seed=9)
    kernel = builder.guest("vm", vcpus=2)
    rng = np.random.default_rng(9)
    LoadMix(kernel, rng).add_hogs(2, total_ns=200 * MS)
    machine = builder.start()
    machine.run(until=5 * SEC)
    # Workload done, guests idle: only the hypervisor tick (and its
    # bounded helpers) should remain.
    assert machine.sim.pending_count() < 20
