"""Seeded chaos schedules: randomized crash-stop fault plans.

``generate_plan`` turns one integer seed into a reproducible
:class:`~repro.faults.plan.FaultPlan` of scripted crash-stop events —
daemon crashes, vCPU hangs, balancer outages — spread over the middle of
a run (the first/last 10% are left quiet so warmup and teardown are
always clean).  The same ``(seed, knobs)`` pair always yields the same
plan, and the plan round-trips through JSON.

This module only *builds* plans; the ``chaos`` runner experiment drives
them, and the directed tests in ``tests/recovery/test_recovery.py``
assert each recovery protocol (crash restart, hang clear, outage
re-sync).
"""

from __future__ import annotations

from repro.faults.plan import FaultConfig, FaultEvent, FaultPlan
from repro.sim.rng import SeedSequenceFactory
from repro.units import MS


def _spread(stream, count: int, duration_ns: int) -> list[int]:
    """``count`` event instants in the middle 80% of the run, sorted."""
    lo = duration_ns // 10
    span = duration_ns - 2 * lo
    times = [lo + round(stream._next() * span) for _ in range(count)]
    return sorted(times)


def generate_plan(
    seed: int,
    duration_ns: int,
    *,
    daemon_crashes: int = 0,
    vcpu_hangs: int = 0,
    balancer_outages: int = 0,
    base_rate: float = 0.0,
    vcpus: int = 4,
    outage_duration_ns: int = 250 * MS,
    restart_delay_ns: int = 0,
) -> FaultPlan:
    """Build a seeded randomized crash schedule.

    ``base_rate`` optionally layers the transient-fault profile
    (:meth:`FaultConfig.scaled`) underneath the scripted crash events;
    crash-stop *rates* stay zero so every crash in the plan is scripted
    and therefore visible in the serialized schedule.  ``restart_delay_ns``
    (0 = config default) sets how long crashed daemons stay down.
    """
    if duration_ns <= 0:
        raise ValueError("duration_ns must be positive")
    if vcpus < 2 and vcpu_hangs > 0:
        raise ValueError("vcpu hangs need at least 2 vCPUs (vCPU0 is exempt)")
    seeds = SeedSequenceFactory(seed)
    times = seeds.stream("chaos.times", "random")
    targets = seeds.stream("chaos.targets", "random")

    events: list[FaultEvent] = []
    for at_ns in _spread(times, daemon_crashes, duration_ns):
        events.append(
            FaultEvent(
                at_ns=at_ns,
                site="daemon_crash",
                duration_ns=restart_delay_ns,
            )
        )
    for at_ns in _spread(times, vcpu_hangs, duration_ns):
        # vCPU0 hosts the daemon and the watchdog; hang the others.
        index = 1 + int(targets._next() * (vcpus - 1)) if vcpus > 1 else 1
        index = min(index, vcpus - 1)
        events.append(
            FaultEvent(at_ns=at_ns, site="vcpu_hang", magnitude=float(index))
        )
    for at_ns in _spread(times, balancer_outages, duration_ns):
        events.append(
            FaultEvent(
                at_ns=at_ns,
                site="balancer_outage",
                duration_ns=outage_duration_ns,
            )
        )

    config = FaultConfig.scaled(base_rate) if base_rate > 0.0 else FaultConfig()
    return FaultPlan(config=config, seed=seed, events=tuple(events))
