"""The guest tick path's former bodies, kept as an oracle.

The tick handler's slice check, its nohz idle-balance kick and
``RunQueue.advance_min_vruntime`` were rewritten for speed: loads tested
inline, ``pick_next()`` called only when the lag test decides, enum
members read from module constants, no list built per call.  This module
keeps the bodies they replaced, written the plain way, as the reference
the differential tests in ``test_tick_oracle.py`` hold them to.  Each
function reads the state the rewritten code reads and returns what that
code must do, without doing it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.hypervisor.domain import VCPUState

if TYPE_CHECKING:  # pragma: no cover
    from repro.guest.kernel import GuestKernel
    from repro.guest.runqueue import RunQueue


def reference_tick_preemption(kernel: "GuestKernel", i: int) -> str | None:
    """What ``GuestKernel._tick_preemption(i)`` does: ``"dispatch"`` (no
    current thread), ``"preempt"`` (switch the current thread out, then
    dispatch) or None."""
    rq = kernel.runqueues[i]
    current = rq.current
    if current is None:
        return "dispatch"
    if current.rt or current.nonpreemptible or not rq.ready:
        return None
    nr_running = len(rq.ready) + 1
    ideal = max(kernel.config.quantum_ns // 8, kernel.config.sched_latency_ns // nr_running)
    ran = kernel.sim.now - rq.picked_at
    best = rq.pick_next()
    lagging = best is not None and not best.rt and (
        current.vruntime - best.vruntime > ideal
    )
    if ran >= ideal or (lagging and ran >= kernel.config.tick_ns):
        return "preempt"
    return None


def reference_nohz_target(kernel: "GuestKernel", i: int) -> int | None:
    """The sibling ``GuestKernel._nohz_kick(i)`` wakes, or None."""
    if kernel.runqueues[i].load() < 2:
        return None
    for j, rq in enumerate(kernel.runqueues):
        if j == i or j in kernel.cpu_freeze_mask:
            continue
        vcpu = kernel.domain.vcpus[j]
        if rq.load() == 0 and vcpu.state is VCPUState.BLOCKED:
            return j
    return None


def reference_min_vruntime(rq: "RunQueue"):
    """``rq.min_vruntime`` after ``rq.advance_min_vruntime()``."""
    candidates = [t.vruntime for t in rq.ready]
    if rq.current is not None:
        candidates.append(rq.current.vruntime)
    if candidates:
        return max(rq.min_vruntime, min(candidates))
    return rq.min_vruntime
