"""The machine-state observer: one canonical view of a whole machine.

:func:`state_dict` reads everything that determines a machine's future
execution into a JSON-able dict: the engine queue, RNG stream positions,
scheduler runqueues, domain/vCPU/guest/thread state, the xenstore tree
and the fault injector's position.  :func:`fingerprint` hashes it.  Two
machines with equal fingerprints are in the same state, so a test can
compare two runs that should agree at one instant:

* twin builds from one factory (``tests/recovery/test_checkpoint.py``),
  which catch state a run carries but never reports;
* the elided guest tick path against the per-tick reference
  (``tests/sim/test_macro_equivalence.py``);
* a run under a zero-crash fault plan against one with no plan
  (``tests/recovery/test_recovery.py``).

The state is keyed by stable names (domain names, ``domain/index`` vCPU
labels, thread names, callback qualnames), never by object identity or
the process-global thread-id counter, so fingerprints compare across
independently built machines.  They are also *engine-invariant*: they
hash a canonical view that drops guest tick events (tick elision
represents elided tick chains as kernel bookkeeping rather than queue
entries) and replaces absolute event sequence numbers with within-time
ranks (the causal scheduling order, which every queue shares).  The raw
engine queue stays in the state dict for diagnostics.
"""

from __future__ import annotations

import hashlib
import json
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.hypervisor.machine import Machine


def _vcpu_state(vcpu) -> dict:
    return {
        "state": vcpu.state.value,
        "priority": int(vcpu.priority),
        "credits": vcpu.credits,
        "pcpu": vcpu.pcpu.index if vcpu.pcpu is not None else None,
        "last_pcpu": vcpu.last_pcpu.index if vcpu.last_pcpu is not None else None,
        "boosted": vcpu.boosted,
        "freeze_pending": vcpu.freeze_pending,
        "run_started_at": vcpu.run_started_at,
        "pending_irqs": [irq.irq_class.value for irq in vcpu.pending_irqs],
        "irq_delivered": vcpu.irq_delivered.value,
        "ipi_received": vcpu.ipi_received.value,
    }


def _guest_state(guest) -> dict | None:
    """Guest-kernel state, via getattr guards: non-kernel guests (plain
    test doubles) contribute whatever subset of the surface they have."""
    if guest is None:
        return None
    state: dict = {}
    online = getattr(guest, "online_vcpus", None)
    if callable(online):
        state["online_vcpus"] = online()
    mask = getattr(guest, "cpu_freeze_mask", None)
    if mask is not None:
        state["freeze_mask"] = sorted(mask)
    threads = getattr(guest, "threads", None)
    if threads is not None:
        # Keyed by name, not tid: tids come from a process-global counter
        # and differ between twin builds.
        state["threads"] = [
            {
                "name": t.name,
                "state": t.state.value,
                "vcpu": t.vcpu_index,
                "vruntime": t.vruntime,
                "exec_ns": t.exec_ns,
                "migrations": t.migrations,
            }
            for t in threads
        ]
    return state


def _domain_state(domain) -> dict:
    return {
        "weight": domain.weight,
        "cap": domain.cap,
        "window_consumed_ns": domain.window_consumed_ns,
        "total_consumed_ns": domain.total_consumed_ns,
        "extendability_ns": domain.extendability_ns,
        "optimal_vcpus": domain.optimal_vcpus,
        "extendability_published_ns": domain.extendability_published_ns,
        "vcpus": [_vcpu_state(v) for v in domain.vcpus],
        "guest": _guest_state(domain.guest),
    }


def _faults_state(injector) -> dict | None:
    if injector is None:
        return None
    return {
        "stats": injector.stats.to_dict(),
        "recovery": injector.recovery.to_dict(),
        "scripted_consumed": sorted(injector._scripted.consumed),
        "outage_onsets": sorted(injector._outage_onsets_seen),
        "balancer_down_until": injector._balancer_down_until,
        "rng": injector._seeds.state_dict(),
    }


def state_dict(machine: "Machine") -> dict:
    """The canonical JSON-able view of one machine's full state.

    Read-only: nothing in here may pop queue entries, flush timers, or
    draw randomness, so observing a run leaves it bit-identical to an
    unobserved one (``test_snapshot_is_pure`` pins this).
    """
    sim = machine.sim
    return {
        "at_ns": sim.now,
        "engine": {
            "seq": sim._seq,
            "events": sim.snapshot_events(),
        },
        "rng": machine.seeds.state_dict(),
        "scheduler": machine.scheduler.state_dict(),
        "pool": [
            {
                "index": pcpu.index,
                "current": pcpu.current.name if pcpu.current else None,
                "idle_ns": pcpu.idle_ns,
                "idle_since": pcpu._idle_since,
            }
            for pcpu in machine.pool
        ],
        "domains": {d.name: _domain_state(d) for d in machine.domains},
        "faults": _faults_state(machine.faults),
        "xenstore": {
            "tree": dict(sorted(machine.xenstore._tree.items())),
            "writes": machine.xenstore.writes,
            "watch_fires": machine.xenstore.watch_fires,
        },
    }


#: Callbacks whose queue entries are a representation detail: the
#: default tick path elides guest ticks that are pure bookkeeping (their
#: chain state lives in GuestKernel instead, and the ticks it does
#: schedule carry their chain's rank as seq), so the presence, timing
#: grid and sequence numbers of tick events legitimately differ from a
#: per-tick run while the simulated machine is in the same logical state.
_ENGINE_PRIVATE_CALLBACKS = frozenset({
    "repro.guest.kernel.GuestKernel._tick",
})


def canonical_view(state: dict) -> dict:
    """The engine-invariant projection of a state dict that fingerprints
    hash.  Guest tick events are dropped and each remaining event's
    global sequence number becomes its rank among same-time events —
    identical across engines and tick paths at the same instant."""
    engine = state.get("engine") or {}
    by_time: dict[int, list] = {}
    for time, seq, callback in engine.get("events") or []:
        if callback in _ENGINE_PRIVATE_CALLBACKS:
            continue
        by_time.setdefault(time, []).append((seq, callback))
    rows = []
    for time in sorted(by_time):
        for rank, (_seq, callback) in enumerate(sorted(by_time[time])):
            rows.append([time, rank, callback])
    out = dict(state)
    out["engine"] = {"events": rows}
    return out


def fingerprint(state: dict) -> str:
    """SHA-256 over the canonical (engine-invariant) serialization."""
    canonical = json.dumps(canonical_view(state), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
