"""Tests for the credit scheduler: proportional sharing, priorities,
freeze semantics, caps, ratelimit and work conservation."""

import pytest

from repro.hypervisor.domain import Priority, VCPUState
from repro.units import MS, SEC
from tests.conftest import StackBuilder, busy


def run_shares(weights, pcpus=2, vcpus_each=2, duration=3 * SEC, caps=None):
    """Run all-busy guests and return each domain's consumed share."""
    builder = StackBuilder(pcpus=pcpus)
    kernels = []
    for index, weight in enumerate(weights):
        cap = caps[index] if caps else None
        kernel = builder.guest(f"vm{index}", vcpus=vcpus_each, weight=weight, cap=cap)
        for t in range(vcpus_each):
            kernel.spawn(busy(10 * duration), f"busy{t}")
        kernels.append(kernel)
    machine = builder.start()
    machine.run(until=duration)
    totals = {}
    for domain in machine.domains:
        totals[domain.name] = domain.total_run_ns(machine.sim.now)
    return totals, machine


class TestProportionalSharing:
    def test_equal_weights_equal_shares(self):
        totals, machine = run_shares([256, 256])
        assert totals["vm0"] == pytest.approx(totals["vm1"], rel=0.05)

    def test_2to1_weights(self):
        totals, _ = run_shares([512, 256])
        assert totals["vm0"] / totals["vm1"] == pytest.approx(2.0, rel=0.10)

    def test_pool_fully_used_when_saturated(self):
        totals, machine = run_shares([256, 256], duration=2 * SEC)
        consumed = sum(totals.values())
        capacity = 2 * 2 * SEC
        assert consumed >= capacity * 0.97

    def test_work_conserving_when_one_domain_idle(self):
        """An idle co-tenant's share flows to the busy domain."""
        builder = StackBuilder(pcpus=2)
        busy_kernel = builder.guest("busy", vcpus=2, weight=256)
        builder.guest("idle", vcpus=2, weight=256)
        for t in range(2):
            busy_kernel.spawn(busy(30 * SEC), f"b{t}")
        machine = builder.start()
        machine.run(until=2 * SEC)
        run = busy_kernel.domain.total_run_ns(machine.sim.now)
        # With the co-tenant idle, the busy domain gets ~the whole pool.
        assert run >= 2 * 2 * SEC * 0.95


class TestCaps:
    def test_cap_limits_consumption(self):
        totals, _ = run_shares([256, 256], caps=[0.5, None], duration=2 * SEC)
        # vm0 capped at half a pCPU over 2s = 1s of CPU (soft cap: allow
        # some slop because parked vCPUs still soak truly-idle cycles).
        assert totals["vm0"] <= 1.3 * SEC

    def test_uncapped_tenant_gets_remainder(self):
        totals, _ = run_shares([256, 256], caps=[0.5, None], duration=2 * SEC)
        assert totals["vm1"] >= 2.5 * SEC


class TestFreezeSemantics:
    def test_marked_vcpu_freezes_when_it_blocks(self, single_guest):
        builder, kernel = single_guest
        machine = builder.start()
        vcpu = kernel.domain.vcpus[1]
        machine.hyp_mark_freeze(vcpu)
        assert vcpu.freeze_pending
        machine.scheduler.vcpu_block(vcpu)
        assert vcpu.state is VCPUState.FROZEN
        assert not vcpu.freeze_pending

    def test_frozen_vcpu_excluded_from_accounting(self, single_guest):
        builder, kernel = single_guest
        machine = builder.start()
        domain = kernel.domain
        machine.hyp_mark_freeze(domain.vcpus[1])
        assert domain.active_vcpus() == [domain.vcpus[0]]

    def test_unfreeze_revives_vcpu(self, single_guest):
        builder, kernel = single_guest
        machine = builder.start()
        vcpu = kernel.domain.vcpus[1]
        machine.hyp_mark_freeze(vcpu)
        machine.scheduler.vcpu_block(vcpu)
        machine.hyp_unfreeze_vcpu(vcpu)
        assert vcpu.state in (VCPUState.RUNNABLE, VCPUState.RUNNING, VCPUState.BLOCKED)
        assert not vcpu.freeze_pending

    def test_per_vm_weight_preserves_share_after_freeze(self):
        """The paper's Xen change: freezing vCPUs must not shrink the
        domain's total credit share."""
        builder = StackBuilder(pcpus=2)
        frozen_kernel = builder.guest("scaler", vcpus=2, weight=256)
        other_kernel = builder.guest("rival", vcpus=2, weight=256)
        frozen_kernel.spawn(busy(60 * SEC), "one", pinned_to=0)
        for t in range(2):
            other_kernel.spawn(busy(60 * SEC), f"r{t}")
        machine = builder.start()
        machine.run(until=200 * MS)
        machine.hyp_mark_freeze(frozen_kernel.domain.vcpus[1])
        machine.scheduler.vcpu_block(frozen_kernel.domain.vcpus[1])
        start = machine.sim.now
        base = {d.name: d.total_run_ns(start) for d in machine.domains}
        machine.run(until=start + 3 * SEC)
        gained = {
            d.name: d.total_run_ns(machine.sim.now) - base[d.name]
            for d in machine.domains
        }
        # Equal weights: the one-active-vCPU domain still gets ~one pCPU
        # (its 50% of a 2-pCPU pool), not 1/3.
        assert gained["scaler"] == pytest.approx(3 * SEC, rel=0.10)

    def test_per_vcpu_weight_mode_shrinks_share(self):
        """Ablation: unmodified Xen 4.5 semantics penalize freezing."""
        builder = StackBuilder(pcpus=2, per_vm_weight=False)
        scaler = builder.guest("scaler", vcpus=2, weight=256)
        rival = builder.guest("rival", vcpus=2, weight=256)
        scaler.spawn(busy(60 * SEC), "one", pinned_to=0)
        for t in range(2):
            rival.spawn(busy(60 * SEC), f"r{t}")
        machine = builder.start()
        machine.run(until=200 * MS)
        machine.hyp_mark_freeze(scaler.domain.vcpus[1])
        machine.scheduler.vcpu_block(scaler.domain.vcpus[1])
        start = machine.sim.now
        base = scaler.domain.total_run_ns(start)
        machine.run(until=start + 3 * SEC)
        gained = scaler.domain.total_run_ns(machine.sim.now) - base
        # Per-vCPU weight: 1 active vCPU of 3 weighted units -> ~1/3 pool.
        assert gained == pytest.approx(2 * SEC, rel=0.15)


class TestPriorities:
    def test_overconsumer_drops_to_over(self, single_guest):
        builder, kernel = single_guest
        kernel.spawn(busy(30 * SEC), "hog", pinned_to=0)
        machine = builder.start()
        machine.run(until=500 * MS)
        hog_vcpu = kernel.domain.vcpus[0]
        # Alone on 2 pCPUs it cannot overconsume its share; with clamped
        # credits it stays UNDER.
        assert hog_vcpu.credits >= -machine.config.acct_ns

    def test_boost_on_wake_with_credit(self, stack):
        sleeper = stack.guest("sleepy", vcpus=1)
        hog = stack.guest("hog", vcpus=2)
        for t in range(2):
            hog.spawn(busy(30 * SEC), f"h{t}")
        machine = stack.start()
        machine.run(until=100 * MS)
        vcpu = sleeper.domain.vcpus[0]
        assert vcpu.state is VCPUState.BLOCKED
        machine.hyp_wake(vcpu)
        assert vcpu.priority is Priority.BOOST

    def test_wait_accounting_tracks_queueing(self):
        """Oversubscribed pool: someone must accumulate waiting time."""
        builder = StackBuilder(pcpus=1)
        a = builder.guest("a", vcpus=1)
        b = builder.guest("b", vcpus=1)
        a.spawn(busy(10 * SEC), "a0")
        b.spawn(busy(10 * SEC), "b0")
        machine = builder.start()
        machine.run(until=1 * SEC)
        waits = sum(d.total_wait_ns(machine.sim.now) for d in machine.domains)
        assert waits == pytest.approx(1 * SEC, rel=0.05)


class TestRatelimit:
    def test_boost_preemption_deferred_by_ratelimit(self):
        builder = StackBuilder(pcpus=1)
        hog = builder.guest("hog", vcpus=1)
        sleeper = builder.guest("sleepy", vcpus=1)
        hog.spawn(busy(30 * SEC), "h")
        machine = builder.start()
        machine.run(until=50 * MS + 100_000)  # just past a slice boundary
        hog_vcpu = hog.domain.vcpus[0]
        assert hog_vcpu.state is VCPUState.RUNNING
        started = hog_vcpu.run_started_at
        machine.hyp_wake(sleeper.domain.vcpus[0])
        machine.run(until=machine.sim.now + 100_000)  # 0.1ms later
        # Still within the 1ms ratelimit window: not preempted yet.
        if machine.sim.now - started < machine.config.ratelimit_ns:
            assert hog_vcpu.state is VCPUState.RUNNING
        machine.run(until=started + machine.config.ratelimit_ns + 200_000)
        # After the window the BOOST vCPU got its turn: it waited out the
        # ratelimit in the runqueue (RUNNABLE time > 0) and, having no
        # threads, idled straight back to BLOCKED.
        sleeper_vcpu = sleeper.domain.vcpus[0]
        sleeper_vcpu.timer.flush(machine.sim.now)
        assert sleeper_vcpu.state is VCPUState.BLOCKED
        assert sleeper_vcpu.timer.total(VCPUState.RUNNABLE.value) > 0


class TestYield:
    def test_yield_requeues_vcpu(self):
        builder = StackBuilder(pcpus=1)
        a = builder.guest("a", vcpus=1)
        b = builder.guest("b", vcpus=1)
        a.spawn(busy(10 * SEC), "a0")
        b.spawn(busy(10 * SEC), "b0")
        machine = builder.start()
        machine.run(until=5 * MS)
        running = [d.vcpus[0] for d in machine.domains if d.vcpus[0].state is VCPUState.RUNNING]
        assert len(running) == 1
        current = running[0]
        machine.hyp_yield(current)
        machine.run(until=machine.sim.now + 1 * MS)
        # The other vCPU should now be running.
        assert current.state in (VCPUState.RUNNABLE, VCPUState.RUNNING)
        others = [d.vcpus[0] for d in machine.domains if d.vcpus[0] is not current]
        assert any(v.state is VCPUState.RUNNING for v in others)
