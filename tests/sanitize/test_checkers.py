"""Unit tests for the sanitizer: each checker fed a synthetic violating state.

Every test hand-crafts the smallest state that breaks one invariant and
asserts the matching checker raises :class:`InvariantViolation`.  A final
end-to-end test runs a real freeze/unfreeze workload sanitized and asserts
zero violations with all the hook sites exercised.
"""

import dataclasses

import pytest

from repro.core.balancer import VScaleBalancer
from repro.core.extendability import VMUsage, compute_extendability
from repro.hypervisor.domain import VCPUState
from repro.sanitize import InvariantViolation, Sanitizer, enabled
from repro.sim.engine import Event
from repro.sim.trace import NULL_TRACER
from repro.units import MS, SEC
from tests.conftest import StackBuilder, busy


def sanitized_stack(pcpus=2, vcpus=2):
    builder = StackBuilder(pcpus=pcpus)
    kernel = builder.guest("vm", vcpus=vcpus)
    sanitizer = builder.machine.install_sanitizer()
    return builder.machine, kernel, sanitizer


# ----------------------------------------------------------------------
# Plumbing
# ----------------------------------------------------------------------
def test_enabled_reads_environment(monkeypatch):
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    assert not enabled()
    monkeypatch.setenv("REPRO_SANITIZE", "0")
    assert not enabled()
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    assert enabled()


def test_env_var_installs_on_every_machine(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    machine, kernel, _ = (b := StackBuilder(pcpus=2)).machine, b.guest("vm"), None
    assert machine.sanitizer is not None
    # The null tracer is swapped for a ring tracer so violations have context.
    assert machine.tracer is not NULL_TRACER
    assert machine.sim.dispatch_check is not None


def test_install_is_idempotent_but_exclusive():
    machine, _, sanitizer = sanitized_stack()
    assert machine.install_sanitizer() is sanitizer
    with pytest.raises(RuntimeError, match="already has a sanitizer"):
        Sanitizer(machine).install()


def test_violation_carries_structured_context():
    machine, _, sanitizer = sanitized_stack()
    machine.tracer.emit(0, "sched", "run", "vm.v0")
    with pytest.raises(InvariantViolation) as excinfo:
        sanitizer.fail("event_monotonic", "synthetic failure", detail=42)
    violation = excinfo.value
    assert violation.checker == "event_monotonic"
    assert violation.context == {"detail": 42}
    assert violation.time_ns == machine.sim.now
    assert violation.trace_tail  # the ring tracer's tail came along
    assert "[event_monotonic] synthetic failure" in str(violation)
    assert "detail = 42" in str(violation)
    assert sanitizer.violations == 1


# ----------------------------------------------------------------------
# sim/engine: event dispatch
# ----------------------------------------------------------------------
def test_dispatching_tombstone_raises():
    machine, _, sanitizer = sanitized_stack()
    event = machine.sim.schedule(10, lambda: None)
    event.cancel()
    with pytest.raises(InvariantViolation, match="tombstoned"):
        sanitizer.check_dispatch(machine.sim, event)


def test_dispatching_past_event_raises():
    machine, _, sanitizer = sanitized_stack()
    stale = Event(-5, 0, lambda: None, ())
    with pytest.raises(InvariantViolation, match="backwards"):
        sanitizer.check_dispatch(machine.sim, stale)


def test_same_instant_dispatch_out_of_key_order_raises():
    machine, _, sanitizer = sanitized_stack()
    sim = machine.sim
    fired = sim.schedule(10, lambda: None)
    # An event keyed into the same instant ahead of one that already
    # fired there, as a tick re-armed with a stale order key would be.
    sim.order_key = (fired.born, fired.seq - 1)
    early = sim.schedule_at(10, lambda: None)
    sanitizer.check_dispatch(sim, fired)
    with pytest.raises(InvariantViolation, match=r"out of \(born, seq\) order"):
        sanitizer.check_dispatch(sim, early)


def test_same_instant_dispatch_in_key_order_passes():
    machine, _, sanitizer = sanitized_stack()
    sim = machine.sim
    first = sim.schedule(10, lambda: None)
    second = sim.schedule(10, lambda: None)
    sanitizer.check_dispatch(sim, first)
    sanitizer.check_dispatch(sim, second)


# ----------------------------------------------------------------------
# hypervisor/credit: burn + accounting
# ----------------------------------------------------------------------
def test_burning_credit_while_frozen_raises():
    _, kernel, sanitizer = sanitized_stack()
    vcpu = kernel.domain.vcpus[1]
    vcpu.state = VCPUState.FROZEN
    with pytest.raises(InvariantViolation, match="while FROZEN"):
        sanitizer.check_burn(vcpu, 100)


def test_burning_negative_interval_raises():
    _, kernel, sanitizer = sanitized_stack()
    vcpu = kernel.domain.vcpus[0]
    with pytest.raises(InvariantViolation, match="negative interval"):
        sanitizer.check_burn(vcpu, -1)


def test_acct_detects_skipped_credit_grant():
    machine, kernel, sanitizer = sanitized_stack()
    domain = kernel.domain
    # Balances unchanged across "accounting" = the domain never got its share.
    before = {v: v.credits for v in domain.active_vcpus()}
    with pytest.raises(InvariantViolation, match="weight-proportional credit"):
        sanitizer.check_acct(machine.scheduler, [domain], before)


def test_acct_detects_unreset_consumption_window():
    machine, kernel, sanitizer = sanitized_stack()
    domain = kernel.domain
    acct = machine.config.acct_ns
    per_vcpu = machine.config.pcpus * acct / len(domain.active_vcpus())
    before = {v: v.credits - per_vcpu for v in domain.active_vcpus()}
    domain.window_consumed_ns = 7
    with pytest.raises(InvariantViolation, match="consumption window"):
        sanitizer.check_acct(machine.scheduler, [domain], before)


def test_acct_detects_credit_granted_to_frozen_vcpu():
    machine, kernel, sanitizer = sanitized_stack()
    domain = kernel.domain
    frozen = domain.vcpus[1]
    frozen.state = VCPUState.FROZEN
    frozen.credits = 1000.0  # a positive balance can only come from a grant
    acct = machine.config.acct_ns
    per_vcpu = machine.config.pcpus * acct / len(domain.active_vcpus())
    before = {v: v.credits - per_vcpu for v in domain.active_vcpus()}
    with pytest.raises(InvariantViolation, match="granted credit"):
        sanitizer.check_acct(machine.scheduler, [domain], before)


def test_runqueue_rejects_non_runnable_member():
    machine, kernel, sanitizer = sanitized_stack()
    vcpu = kernel.domain.vcpus[1]
    vcpu.state = VCPUState.BLOCKED
    machine.scheduler.runqueues[machine.pool[0]].append(vcpu)
    with pytest.raises(InvariantViolation, match="queued"):
        sanitizer.check_runqueues(machine.scheduler)


def test_runqueue_rejects_double_membership():
    machine, kernel, sanitizer = sanitized_stack()
    vcpu = kernel.domain.vcpus[1]
    vcpu.state = VCPUState.RUNNABLE
    machine.scheduler.runqueues[machine.pool[0]].append(vcpu)
    machine.scheduler.runqueues[machine.pool[1]].append(vcpu)
    with pytest.raises(InvariantViolation, match="two runqueues"):
        sanitizer.check_runqueues(machine.scheduler)


def test_runqueue_rejects_running_state_mismatch():
    machine, kernel, sanitizer = sanitized_stack()
    vcpu = kernel.domain.vcpus[1]
    vcpu.state = VCPUState.RUNNABLE
    machine.pool[0].current = vcpu
    with pytest.raises(InvariantViolation, match="runs"):
        sanitizer.check_runqueues(machine.scheduler)


def test_enqueue_rejects_non_runnable_vcpu():
    _, kernel, sanitizer = sanitized_stack()
    vcpu = kernel.domain.vcpus[0]
    vcpu.state = VCPUState.BLOCKED
    with pytest.raises(InvariantViolation, match="enqueued while"):
        sanitizer.check_enqueue(vcpu)


# ----------------------------------------------------------------------
# hypervisor/domain: state transitions
# ----------------------------------------------------------------------
def test_illegal_transition_raises():
    _, kernel, sanitizer = sanitized_stack()
    vcpu = kernel.domain.vcpus[1]
    vcpu.state = VCPUState.FROZEN
    with pytest.raises(InvariantViolation, match="illegal vCPU transition"):
        sanitizer.check_vcpu_transition(vcpu, VCPUState.RUNNING)


def test_freezing_with_populated_guest_runqueue_raises():
    _, kernel, sanitizer = sanitized_stack()
    kernel.spawn(busy(1 * SEC), "w", pinned_to=1)
    # Raw set.add bypasses the mask's coalesce-fold hook: this test wants
    # exactly "mask bit set, runqueue still populated" with no side effects.
    set.add(kernel.cpu_freeze_mask, 1)
    vcpu = kernel.domain.vcpus[1]
    with pytest.raises(InvariantViolation, match="threads still on its runqueue"):
        sanitizer.check_vcpu_transition(vcpu, VCPUState.FROZEN)


# ----------------------------------------------------------------------
# guest/kernel: freeze mask, migration, placement
# ----------------------------------------------------------------------
class _FakeGuest:
    """Duck-typed guest for mask-consistency tests the real kernel cannot
    reach (its ``online_vcpus`` is derived from the mask, so a power
    disagreement requires a broken implementation)."""

    def __init__(self, domain, n, mask, online):
        self.domain = domain
        self.runqueues = [type("RQ", (), {"ready": [], "current": None})() for _ in range(n)]
        self.cpu_freeze_mask = mask
        self.online_vcpus = online


def test_freeze_mask_rejects_out_of_range_index():
    _, kernel, sanitizer = sanitized_stack()
    fake = _FakeGuest(kernel.domain, 2, {5}, 1)
    with pytest.raises(InvariantViolation, match="out-of-range"):
        sanitizer.check_freeze_mask(fake)


def test_freeze_mask_rejects_master_vcpu():
    _, kernel, sanitizer = sanitized_stack()
    fake = _FakeGuest(kernel.domain, 2, {0}, 1)
    with pytest.raises(InvariantViolation, match="master vCPU"):
        sanitizer.check_freeze_mask(fake)


def test_freeze_mask_rejects_power_disagreement():
    _, kernel, sanitizer = sanitized_stack()
    fake = _FakeGuest(kernel.domain, 2, {1}, 2)
    with pytest.raises(InvariantViolation, match="power disagrees"):
        sanitizer.check_freeze_mask(fake)


def test_freeze_migration_rejects_leftover_threads():
    _, kernel, sanitizer = sanitized_stack()
    kernel.spawn(busy(1 * SEC), "w0")
    kernel.spawn(busy(1 * SEC), "w1")  # fork balance lands this on rq1
    assert kernel.runqueues[1].ready
    with pytest.raises(InvariantViolation, match="migratable threads left"):
        sanitizer.check_freeze_migration(kernel, 1)


def test_freeze_migration_rejects_bound_event_channel():
    _, kernel, sanitizer = sanitized_stack()
    kernel.domain.new_event_channel("nic", bound_vcpu=1)
    with pytest.raises(InvariantViolation, match="event channels still bound"):
        sanitizer.check_freeze_migration(kernel, 1)


def test_placement_rejects_unpinned_thread_on_frozen_vcpu():
    _, kernel, sanitizer = sanitized_stack()
    thread = kernel.spawn(busy(1 * MS), "w")
    set.add(kernel.cpu_freeze_mask, 1)
    with pytest.raises(InvariantViolation, match="placed on frozen"):
        sanitizer.check_thread_placement(kernel, thread, 1)


def test_placement_rejects_runqueue_target_mismatch():
    _, kernel, sanitizer = sanitized_stack()
    thread = kernel.spawn(busy(1 * MS), "w")
    assert thread.vcpu_index == 0
    with pytest.raises(InvariantViolation, match="not its target"):
        sanitizer.check_thread_placement(kernel, thread, 1)


# ----------------------------------------------------------------------
# core/balancer: post-syscall agreement
# ----------------------------------------------------------------------
def test_balancer_freeze_requires_mask_bit():
    _, kernel, sanitizer = sanitized_stack()
    kernel.domain.vcpus[1].freeze_pending = True  # hypervisor marked, mask not
    with pytest.raises(InvariantViolation, match="mask bit clear"):
        sanitizer.check_balancer_op(kernel, 1, freeze=True)


def test_balancer_unfreeze_requires_mask_bit_clear():
    _, kernel, sanitizer = sanitized_stack()
    set.add(kernel.cpu_freeze_mask, 1)
    with pytest.raises(InvariantViolation, match="left the mask bit set"):
        sanitizer.check_balancer_op(kernel, 1, freeze=False)


# ----------------------------------------------------------------------
# core/extendability: Algorithm 1 properties
# ----------------------------------------------------------------------
PERIOD = 10 * MS


def _round(usages, pool=2):
    return compute_extendability(usages, pool_pcpus=pool, period_ns=PERIOD)


def test_extendability_accepts_a_correct_round():
    _, _, sanitizer = sanitized_stack()
    usages = [
        VMUsage("a", 256, consumed_ns=2 * PERIOD),
        VMUsage("b", 256, consumed_ns=0),
    ]
    sanitizer.check_extendability(usages, _round(usages), 2, PERIOD, tolerance=0.0)


def test_extendability_rejects_wrong_fair_share_sum():
    _, _, sanitizer = sanitized_stack()
    usages = [VMUsage("a", 256, consumed_ns=PERIOD), VMUsage("b", 256, consumed_ns=0)]
    results = _round(usages)
    results["a"] = dataclasses.replace(
        results["a"], fair_share_ns=results["a"].fair_share_ns + 10_000
    )
    with pytest.raises(InvariantViolation, match="fair shares"):
        sanitizer.check_extendability(usages, results, 2, PERIOD, tolerance=0.0)


def test_extendability_rejects_wrong_optimal_vcpu_count():
    _, _, sanitizer = sanitized_stack()
    usages = [VMUsage("a", 256, consumed_ns=2 * PERIOD), VMUsage("b", 256, consumed_ns=0)]
    results = _round(usages)
    results["a"] = dataclasses.replace(results["a"], optimal_vcpus=1)
    with pytest.raises(InvariantViolation, match="disagrees with ceil"):
        sanitizer.check_extendability(usages, results, 2, PERIOD, tolerance=0.0)


def test_extendability_rejects_unpinned_releaser():
    _, _, sanitizer = sanitized_stack()
    usages = [VMUsage("a", 256, consumed_ns=2 * PERIOD), VMUsage("b", 256, consumed_ns=0)]
    results = _round(usages)
    # Subtract so ceil(s_ext/t) is unchanged and the pinning check fires,
    # not the n_i check.
    results["b"] = dataclasses.replace(
        results["b"], extendability_ns=results["b"].extendability_ns - 12_345
    )
    with pytest.raises(InvariantViolation, match="not pinned to its fair share"):
        sanitizer.check_extendability(usages, results, 2, PERIOD, tolerance=0.0)


def test_extendability_rejects_lost_slack():
    _, _, sanitizer = sanitized_stack()
    usages = [VMUsage("a", 256, consumed_ns=2 * PERIOD), VMUsage("b", 256, consumed_ns=0)]
    results = _round(usages)
    # The competitor's share shrinks to its bare fair share: the slack the
    # releaser gave up vanished.  n_i is adjusted to match so the ceil check
    # does not fire first.
    results["a"] = dataclasses.replace(
        results["a"], extendability_ns=results["a"].fair_share_ns, optimal_vcpus=1
    )
    with pytest.raises(InvariantViolation, match="not conserved"):
        sanitizer.check_extendability(usages, results, 2, PERIOD, tolerance=0.0)


def test_extendability_rejects_disproportional_slack_split():
    _, _, sanitizer = sanitized_stack()
    usages = [
        VMUsage("r", 256, consumed_ns=0),
        VMUsage("c1", 256, consumed_ns=2 * PERIOD),
        VMUsage("c2", 512, consumed_ns=2 * PERIOD),
    ]
    results = _round(usages)
    # Shift slack from the heavy competitor to the light one, keeping the
    # total conserved.
    results["c1"] = dataclasses.replace(
        results["c1"], extendability_ns=results["c1"].extendability_ns + 1000
    )
    results["c2"] = dataclasses.replace(
        results["c2"], extendability_ns=results["c2"].extendability_ns - 1000
    )
    with pytest.raises(InvariantViolation, match="not weight-proportional"):
        sanitizer.check_extendability(usages, results, 2, PERIOD, tolerance=0.0)


# ----------------------------------------------------------------------
# End to end: a real freeze/unfreeze workload sanitized, zero violations
# ----------------------------------------------------------------------
def test_sanitized_workload_runs_clean_and_exercises_all_hooks():
    machine, kernel, sanitizer = sanitized_stack(pcpus=2, vcpus=2)
    for index in range(4):
        kernel.spawn(busy(2 * SEC), f"w{index}")
    machine.start()
    machine.run(until=200 * MS)
    balancer = VScaleBalancer(kernel)
    balancer.freeze(1)
    machine.run(until=machine.sim.now + 200 * MS)
    balancer.unfreeze(1)
    machine.run(until=machine.sim.now + 200 * MS)
    assert sanitizer.violations == 0
    for checker in (
        "event_monotonic",
        "credit_frozen_burn",
        "credit_conservation",
        "runqueue_state",
        "vcpu_transition",
        "freeze_mask_power",
        "freeze_migration",
        "thread_placement",
    ):
        assert sanitizer.stats.get(checker, 0) > 0, checker
