"""The tick handler's hot bodies against their former versions.

Random run-queue states go through the kernel's slice check, its nohz
idle-balance kick and ``RunQueue.advance_min_vruntime``, and through the
reference bodies in ``tick_oracle.py``; both must decide the same.  The
states cover what each rewrite shortcuts:

* queues of up to 12 runnable threads: with 8 or more, a slice (750 us
  at the defaults) is shorter than a tick, so a thread can run out its
  slice less than a tick after it was picked;
* RT and non-preemptible current threads, RT threads in the ready queue
  (an RT best thread never counts as lagging) and equal vruntimes;
* siblings RUNNING, RUNNABLE, BLOCKED or FROZEN, in the freeze mask or
  not (the ticking vCPU too), all siblings frozen or all but one;
* tick, quantum and latency settings other than the defaults.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.guest.kernel import GuestConfig
from repro.guest.runqueue import RunQueue
from repro.guest.threads import Thread
from repro.hypervisor.domain import VCPUState
from repro.units import MS, US
from tests.conftest import StackBuilder
from tests.guest.tick_oracle import (
    reference_min_vruntime,
    reference_nohz_target,
    reference_tick_preemption,
)

#: Vruntimes on a coarse grid, nudged by a nanosecond or not, so equal
#: values and differences just either side of a slice both occur.
vruntimes = st.builds(
    lambda step, nudge: step * 250 * US + nudge,
    st.integers(0, 24),
    st.sampled_from([0, 0, 1, -1]),
).map(lambda v: max(v, 0))

#: vCPU states, BLOCKED (the one a kick wakes) weighted up.
STATES = [VCPUState.RUNNING, VCPUState.RUNNABLE, VCPUState.BLOCKED, VCPUState.BLOCKED, VCPUState.FROZEN]

configs = st.one_of(
    st.just(GuestConfig()),
    st.builds(
        GuestConfig,
        tick_ns=st.sampled_from([250 * US, 1 * MS, 4 * MS]),
        quantum_ns=st.sampled_from([2 * MS, 6 * MS, 12 * MS]),
        sched_latency_ns=st.sampled_from([3 * MS, 6 * MS, 24 * MS]),
    ),
)


@st.composite
def threads(draw, kernel, name: str) -> Thread:
    thread = Thread(kernel, iter(()), name, rt=draw(st.sampled_from([False, False, False, True])))
    thread.vruntime = draw(vruntimes)
    return thread


@st.composite
def kernels(draw):
    """A guest of 1–6 vCPUs in a random state, and the ticking vCPU."""
    config = draw(configs)
    n = draw(st.integers(1, 6))
    kernel = StackBuilder(pcpus=2).guest("vm", vcpus=n, guest_config=config)
    i = draw(st.integers(0, n - 1))
    for j, rq in enumerate(kernel.runqueues):
        # Long queues make slices shorter than a tick; idle siblings are
        # the ones a kick can wake.  Draw both often.
        if j == i:
            ready = st.one_of(st.integers(0, 3), st.integers(7, 12))
        else:
            ready = st.sampled_from([0, 0, 0, 1, 3])
        for k in range(draw(ready)):
            rq.enqueue(draw(threads(kernel, f"r{j}.{k}")))
        if draw(st.booleans()):
            current = draw(threads(kernel, f"c{j}"))
            current.vcpu_index = j
            current.nonpreemptible = draw(st.sampled_from([0, 0, 0, 1]))
            rq.current = current
        kernel.domain.vcpus[j].state = draw(st.sampled_from(STATES))
    # Freeze some siblings, all of them (vScale's packed state) or all but
    # one; the ticking vCPU's own bit is drawn apart.
    frozen = draw(st.sampled_from(["some", "all", "all but one"]))
    spare = draw(st.integers(0, n - 1))
    for j in range(n):
        if j == i or frozen == "some":
            freeze = draw(st.sampled_from([False, False, True]))
        else:
            freeze = frozen == "all" or j != spare
        if freeze:
            kernel.cpu_freeze_mask.add(j)
    # How long the current thread has run: anywhere up to three ticks, or
    # right at a slice or tick boundary.
    rq = kernel.runqueues[i]
    slice_ns = max(config.quantum_ns // 8, config.sched_latency_ns // (len(rq.ready) + 1))
    edges = [slice_ns - 1, slice_ns, config.tick_ns - 1, config.tick_ns]
    ran = draw(st.one_of(st.integers(0, 3 * config.tick_ns), st.sampled_from(edges)))
    rq.picked_at = draw(st.integers(0, 10 * MS))
    kernel.sim.now = rq.picked_at + ran
    return kernel, i


def _slice_check(kernel, i: int) -> str | None:
    """What ``kernel._tick_preemption(i)`` did, in the oracle's terms."""
    calls = []
    kernel._switch_out = lambda j, to_ready: calls.append(("switch_out", j, to_ready))
    kernel._dispatch = lambda j: calls.append(("dispatch", j))
    kernel._tick_preemption(i)
    return {
        (): None,
        (("dispatch", i),): "dispatch",
        (("switch_out", i, True), ("dispatch", i)): "preempt",
    }[tuple(calls)]


@settings(max_examples=400, deadline=None)
@given(kernels())
def test_slice_check_matches_reference(state):
    kernel, i = state
    expected = reference_tick_preemption(kernel, i)
    assert _slice_check(kernel, i) == expected


def test_slice_shorter_than_a_tick_ends_inside_the_tick():
    """Eight runnable threads at the defaults: a 750 us slice, so a thread
    picked 800 us ago is preempted although it has not run a full tick."""
    kernel = StackBuilder(pcpus=2).guest("vm", vcpus=1)
    rq = kernel.runqueues[0]
    for k in range(7):
        rq.enqueue(Thread(kernel, iter(()), f"r{k}"))
    rq.current = Thread(kernel, iter(()), "c")
    kernel.sim.now = rq.picked_at + 800 * US
    assert reference_tick_preemption(kernel, 0) == "preempt"
    assert _slice_check(kernel, 0) == "preempt"


def _nohz_kick(kernel, i: int) -> int | None:
    """The sibling ``kernel._nohz_kick(i)`` woke, or None."""
    woken = []
    kernel.machine.hyp_wake = lambda vcpu: woken.append(vcpu.index)
    kernel._nohz_kick(i)
    assert len(woken) <= 1
    return woken[0] if woken else None


@settings(max_examples=400, deadline=None)
@given(kernels())
def test_nohz_kick_target_matches_reference(state):
    kernel, i = state
    expected = reference_nohz_target(kernel, i)
    assert _nohz_kick(kernel, i) == expected


def test_own_freeze_bit_is_not_a_frozen_sibling():
    """The handler tests the ticking vCPU's freeze bit before its slice
    check, whose dispatch runs thread code that may set it, so the
    every-sibling-frozen return must not count that bit.  With vCPU0 and
    vCPU1 in the mask, idle vCPU2 is a live sibling and is still woken."""
    kernel = StackBuilder(pcpus=2).guest("vm", vcpus=3)
    rq = kernel.runqueues[0]
    rq.enqueue(Thread(kernel, iter(()), "r"))
    rq.current = Thread(kernel, iter(()), "c")
    kernel.cpu_freeze_mask.update({0, 1})
    assert reference_nohz_target(kernel, 0) == 2
    assert _nohz_kick(kernel, 0) == 2


@settings(max_examples=400, deadline=None)
@given(
    ready=st.lists(st.tuples(st.integers(1, 3), st.booleans()), max_size=10),
    current=st.none() | st.tuples(st.integers(1, 3), st.booleans()),
    floor=st.integers(0, 2),
)
def test_min_vruntime_matches_reference(ready, current, floor):
    """Small vruntimes, each an int or the equal float, so ties between
    ready threads and the current thread decide which object is kept."""

    def thread(value, as_float, name):
        t = Thread(None, iter(()), name)
        t.vruntime = float(value) if as_float else value
        return t

    rq = RunQueue(0)
    rq.ready = [thread(v, f, f"r{k}") for k, (v, f) in enumerate(ready)]
    rq.current = None if current is None else thread(*current, "c")
    rq.min_vruntime = floor
    expected = reference_min_vruntime(rq)
    rq.advance_min_vruntime()
    assert repr(rq.min_vruntime) == repr(expected)
