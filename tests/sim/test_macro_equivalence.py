"""Guest-tick elision vs the per-tick reference, at the full-simulation level.

The default tick path elides on-CPU guest ticks that are pure bookkeeping:
while a vCPU runs a lone thread, its ticks are folded in closed form
(macro-stepped) instead of firing one event per tick, and only a tick
whose handler could act is scheduled.  Elision must be *observationally
invisible*: same scheduling decisions, same event order within every
instant, same results.

The reference is the same simulator with elision regions disabled
through a test-only seam: ``GuestKernel._macro_horizon`` patched to return
``due``, so no region ever opens and every on-CPU tick fires as an event
(the test names call it ``wheel``, the default path ``macro``).  Off-CPU
tick coalescing stays on in both, as it is part of the canonical tick
path.

The property-based test drives random (scheduler, configuration, host
size, workload, fault-plan) draws through both and requires bit-identical
machine state: same state fingerprint, same guest-visible tick
counters (after ``sync_ticks`` flushes the closed-form folds), same
thread/vCPU states and vruntimes, same fault-injection decisions.  Hosts
of 16 pCPUs carry 14 desktop VMs beside the worker, so tick chains of
many vCPUs share grid instants with each other and with hypervisor
events — the same-instant collisions elision must order exactly.  The
directed tests pin freeze edges, scripted daemon stalls, a balance that
a sibling's block makes possible, one that wakes onto a sibling make
possible, and two benchmark-scale cells whose results elision once
changed.
"""

import functools
from contextlib import contextmanager
from dataclasses import replace

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.experiments import decentralization, fig14, results
from repro.experiments.setups import Config, ScenarioBuilder
from repro.faults import FaultConfig, FaultEvent, FaultPlan
from repro.guest.actions import BlockOn, Compute, WaitQueue
from repro.guest.kernel import GuestKernel
from repro.hypervisor.schedulers import available
from repro.recovery import fingerprint, state_dict
from repro.sim.rng import SeedSequenceFactory
from repro.units import MS, SEC
from repro.workloads.npb import NPBApp, NPB_PROFILES
from repro.workloads.openmp import SPINCOUNT_DEFAULT
from tests.conftest import StackBuilder, busy

WARMUP_NS = 20 * MS

#: A daemon-stall-heavy plan: long stretches where the worker guest goes
#: fully idle and its tick chains die or are elided at once.
STALL_PLAN = FaultPlan(
    config=FaultConfig(daemon_stall_rate=0.3, daemon_stall_periods=4),
    seed=11,
    events=(FaultEvent(at_ns=60 * MS, site="daemon_stall", magnitude=6.0),),
)
#: A mixed transient plan touching the IPI and channel fault sites whose
#: RNG draws must line up exactly with and without elision.
MIXED_PLAN = FaultPlan(
    config=FaultConfig(
        ipi_drop_rate=0.05,
        ipi_delay_rate=0.1,
        channel_fail_rate=0.05,
        daemon_jitter_rate=0.1,
    ),
    seed=23,
)


@contextmanager
def _tick_path(path):
    """Run the block on the ``"elided"`` (default) or ``"per-tick"`` tick
    path; yields a one-slot list counting dispatched guest ticks."""
    fired = [0]
    original_tick = GuestKernel._tick
    original_horizon = GuestKernel._macro_horizon

    @functools.wraps(original_tick)  # keeps the name fingerprints filter on
    def counted_tick(self, i):
        fired[0] += 1
        original_tick(self, i)

    GuestKernel._tick = counted_tick
    if path == "per-tick":
        GuestKernel._macro_horizon = lambda self, i, due: due
    try:
        yield fired
    finally:
        GuestKernel._tick = original_tick
        GuestKernel._macro_horizon = original_horizon


def _observe(scenario) -> dict:
    """Everything elision could plausibly perturb, in comparable form."""
    machine = scenario.machine
    for domain in machine.domains:
        guest = domain.guest
        if guest is not None:
            guest.sync_ticks()  # flush closed-form tick folds
    worker = scenario.worker_kernel
    stats = machine.faults.stats if machine.faults is not None else None
    return {
        "now": machine.sim.now,
        "fingerprint": fingerprint(state_dict(machine)),
        "ticks": [
            [int(c) for c in domain.guest.timer_interrupts]
            for domain in machine.domains
            if isinstance(domain.guest, GuestKernel)
        ],
        "worker_threads": sorted(
            (t.name, t.done, t.vcpu_index, t.vruntime) for t in worker.threads
        ),
        "freeze_mask": sorted(worker.cpu_freeze_mask),
        "vcpu_states": [
            f"{d.name}/{v.index}:{v.state.name}"
            for d in machine.domains
            for v in d.vcpus
        ],
        "fault_stats": None if stats is None else repr(stats),
    }


def _run(path, *, scheduler, config, seed, vcpus, pcpus, plan,
         until_ns, with_app) -> dict:
    with _tick_path(path) as fired:
        scenario = (
            ScenarioBuilder(seed=seed, pcpus=pcpus, scheduler=scheduler)
            .with_worker_vm(vcpus)
            .with_config(config)
            .with_faults(plan)
            .build()
        )
        scenario.start()
        scenario.run(WARMUP_NS)
        if with_app:
            profile = replace(NPB_PROFILES["cg"], iterations=2)
            app = NPBApp(
                scenario.worker_kernel,
                profile,
                SPINCOUNT_DEFAULT,
                SeedSequenceFactory(seed).stream("npb", "normal"),
                kernel_lock=scenario.worker_kernel_lock,
            )
            app.launch()
        scenario.run(until_ns)
        observed = _observe(scenario)
    observed["tick_events"] = fired[0]
    return observed


def _cell_on_both_paths(cell) -> tuple[tuple[dict, int], tuple[dict, int]]:
    """``results.to_dict(cell())`` on the per-tick and the default path,
    each with the number of guest tick events it dispatched."""
    runs = {}
    for path in ("per-tick", "elided"):
        with _tick_path(path) as fired:
            runs[path] = (results.to_dict(cell()), fired[0])
    return runs["per-tick"], runs["elided"]


def _assert_identical(reference: dict, elided: dict) -> None:
    """Equal in everything but the number of tick events dispatched."""
    fired_reference = reference.pop("tick_events")
    fired_elided = elided.pop("tick_events")
    assert reference == elided
    assert fired_elided <= fired_reference


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    scheduler=st.sampled_from(available()),
    config=st.sampled_from(
        [Config.VANILLA, Config.VSCALE, Config.VSCALE_PVLOCK]
    ),
    seed=st.integers(min_value=0, max_value=2**16),
    vcpus=st.sampled_from([2, 4]),
    pcpus=st.sampled_from([4, 16]),
    plan=st.sampled_from([None, STALL_PLAN, MIXED_PLAN]),
    until_ms=st.sampled_from([90, 131, 170]),
    with_app=st.booleans(),
)
def test_macro_is_bit_identical_to_wheel(
    scheduler, config, seed, vcpus, pcpus, plan, until_ms, with_app
):
    kwargs = dict(
        scheduler=scheduler,
        config=config,
        seed=seed,
        vcpus=vcpus,
        pcpus=pcpus,
        plan=plan,
        until_ns=until_ms * MS,
        with_app=with_app,
    )
    _assert_identical(_run("per-tick", **kwargs), _run("elided", **kwargs))


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    vms=st.sampled_from([8, 20, 50]),
    vcpus_per_vm=st.sampled_from([2, 4]),
    duration_ms=st.sampled_from([100, 200, 300]),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_macro_is_bit_identical_to_wheel_on_self_scaling_hosts(
    vms, vcpus_per_vm, duration_ms, seed
):
    """Many self-scaling VMs on 16 pCPUs: every VM's daemon timer and
    most tick chains start at t=0, so their grids collide at every
    millisecond — where elided ticks must count and re-arm in exactly
    the per-tick chain's order."""
    (per_tick, _), (elided, _) = _cell_on_both_paths(
        lambda: decentralization.run(
            vms=vms,
            pcpus=16,
            vcpus_per_vm=vcpus_per_vm,
            duration_ns=duration_ms * MS,
            seed=seed,
        )
    )
    assert per_tick == elided


def test_macro_identical_across_freeze_edges():
    """An overcommitted vScale worker (4 vCPUs on a 2-pCPU pool) forces
    the daemon through freeze/unfreeze reconfigurations, tearing down
    elision regions mid-span on the target vCPU and re-arming them on the
    survivors.  The run must still be bit-identical — and must actually
    have exercised a freeze and elided ticks, or the test is vacuous."""
    kwargs = dict(
        scheduler=None,
        config=Config.VSCALE,
        seed=5,
        vcpus=4,
        pcpus=2,
        plan=None,
        until_ns=400 * MS,
        with_app=True,
    )
    per_tick = _run("per-tick", **kwargs)
    elided = _run("elided", **kwargs)
    assert elided["tick_events"] < per_tick["tick_events"]
    _assert_identical(per_tick, elided)
    assert per_tick["freeze_mask"], "scenario never froze a vCPU (vacuous)"


def test_macro_identical_under_scripted_daemon_stalls():
    """Scripted + stochastic daemon stalls leave the worker guest idle
    for multi-period spans, and their fault-RNG draws must land on the
    same reads with and without elision."""
    kwargs = dict(
        scheduler=None,
        config=Config.VSCALE,
        seed=9,
        vcpus=4,
        pcpus=4,
        plan=STALL_PLAN,
        until_ns=250 * MS,
        with_app=True,
    )
    per_tick = _run("per-tick", **kwargs)
    elided = _run("elided", **kwargs)
    assert elided["tick_events"] < per_tick["tick_events"]
    _assert_identical(per_tick, elided)
    assert per_tick["fault_stats"] is not None
    assert "daemon_stalls=0" not in per_tick["fault_stats"], (
        "no stall ever injected (vacuous)"
    )


def test_decentralized_host_matches_per_tick_reference():
    """50 two-vCPU VMs on 16 pCPUs: daemon timers armed at t=0 fire at
    grid instants of vCPU tick chains, where an elided tick must count
    only if it sorts before the event being dispatched."""
    (per_tick, per_tick_ticks), (elided, elided_ticks) = _cell_on_both_paths(
        lambda: decentralization.run(
            vms=50, pcpus=16, vcpus_per_vm=2, duration_ns=100 * MS, seed=0
        )
    )
    assert per_tick == elided
    assert elided_ticks < per_tick_ticks, "nothing elided (vacuous)"


def test_apache_matches_per_tick_reference():
    """Apache at 10k req/s: ticks of several vCPUs fall due at one
    instant, and a re-armed tick must keep its chain's rank among them."""
    (per_tick, per_tick_ticks), (elided, elided_ticks) = _cell_on_both_paths(
        lambda: fig14.run_point(Config.VANILLA, 10000, duration_ns=200 * MS, seed=0)
    )
    assert per_tick == elided
    assert elided_ticks < per_tick_ticks, "nothing elided (vacuous)"


def _busiest_sibling_blocks(path) -> tuple[dict, int]:
    """Three vCPUs on four pCPUs; thread states at 300 ms on ``path``.

    vCPU0 runs a lone pinned thread, so its ticks are elided.  vCPU1 (three
    pinned RT threads) and vCPU2 (a pinned RT thread and two unpinned fair
    ones) both have load 3, and vCPU1, the busiest its periodic balance
    finds, has nothing to steal.  At 30 ms vCPU1's first thread blocks:
    vCPU2 becomes the busiest, and vCPU0's next balance tick (40 ms) pulls
    ``n0`` from it.
    """
    with _tick_path(path) as fired:
        builder = StackBuilder(pcpus=4, seed=1)
        kernel = builder.guest("vm", vcpus=3)

        def compute_then_sleep():
            yield Compute(30 * MS)
            timer = WaitQueue("timer")
            kernel.start_timer(500 * MS, timer)
            yield BlockOn(timer)

        kernel.spawn(busy(SEC), "lone", pinned_to=0)
        kernel.spawn(compute_then_sleep(), "rt0", rt=True, pinned_to=1)
        for name in ("rt1", "rt2"):
            kernel.spawn(busy(SEC), name, rt=True, pinned_to=1)
        kernel.spawn(busy(SEC), "rt3", rt=True, pinned_to=2)
        for name in ("n0", "n1"):
            kernel.spawn(busy(SEC), name, pinned_to=2).pinned_to = None
        builder.start().run(until=300 * MS)
        threads = {
            t.name: (t.vruntime, t.exec_ns, t.vcpu_index, t.migrations)
            for t in kernel.threads
        }
    return threads, fired[0]


def test_balance_after_the_busiest_sibling_blocks():
    """A block refreshes only its own vCPU's region.  The lone thread's
    horizon must already count every sibling that could be stolen from,
    or vCPU0 keeps its stale infinite horizon and pulls ``n0`` late (at
    70 ms instead of 40 ms before this was fixed)."""
    per_tick, per_tick_ticks = _busiest_sibling_blocks("per-tick")
    elided, elided_ticks = _busiest_sibling_blocks("elided")
    assert elided == per_tick
    assert per_tick["n0"][2:] == (0, 1), "n0 was never pulled (vacuous)"
    assert elided_ticks < per_tick_ticks, "nothing elided (vacuous)"


def _wakes_load_a_sibling(path) -> tuple[dict, int, bool]:
    """Two vCPUs on four pCPUs; thread states at 100 ms on ``path``.

    vCPU1 runs a lone pinned thread, so its ticks are elided, and with no
    sibling to steal from its region's horizon is infinite.  vCPU0 runs a
    pinned RT thread.  At 25 ms one timer wakes ``w1`` (unpinned, so
    stealable) and then ``w2`` (pinned to vCPU0) onto vCPU0: the first
    wake leaves it at load 2, the second at load 3.  Only then can
    vCPU1's periodic balance act, and its next balance tick (30 ms) pulls
    ``w1``.  Also returns whether vCPU1's region was open, with no tick
    scheduled, just before the wakes.
    """
    with _tick_path(path) as fired:
        builder = StackBuilder(pcpus=4, seed=1)
        kernel = builder.guest("vm", vcpus=2)
        go, wake = WaitQueue("go"), WaitQueue("wake")

        def sleeper(waitqueue):
            yield BlockOn(waitqueue)
            yield Compute(SEC)

        kernel.spawn(sleeper(go), "rt", rt=True, pinned_to=0)
        kernel.spawn(busy(SEC), "lone", pinned_to=1)
        kernel.spawn(sleeper(wake), "w1", pinned_to=0).pinned_to = None
        kernel.spawn(sleeper(wake), "w2", pinned_to=0)
        kernel.start_timer(1 * MS, go)
        kernel.start_timer(25 * MS, wake)
        machine = builder.start()
        machine.run(until=24 * MS)
        region_open = 1 in kernel._macro_active and kernel._tick_events[1] is None
        machine.run(until=100 * MS)
        kernel.sync_ticks()
        threads = {
            t.name: (t.vruntime, t.exec_ns, t.vcpu_index, t.migrations)
            for t in kernel.threads
        }
        threads["ticks"] = [int(c) for c in kernel.timer_interrupts]
    return threads, fired[0], region_open


def test_wakes_that_load_a_sibling_move_an_open_region():
    """An enqueue refreshes every open region only when its runqueue then
    has a load of three and a stealable thread.  Here that is the second
    wake: it must move vCPU1's infinite horizon to its next balance tick,
    or vCPU1 pulls ``w1`` late (at 40 ms instead of 30 ms)."""
    per_tick, per_tick_ticks, _ = _wakes_load_a_sibling("per-tick")
    elided, elided_ticks, region_open = _wakes_load_a_sibling("elided")
    assert elided == per_tick
    assert region_open, "vCPU1 had no open region before the wakes (vacuous)"
    assert per_tick["w1"][2:] == (1, 1), "w1 was never pulled (vacuous)"
    assert elided_ticks < per_tick_ticks, "nothing elided (vacuous)"
