"""Deterministic fault plans.

A :class:`FaultPlan` is the complete, seedable description of what can go
wrong during a run: per-site stochastic fault *rates* (each fault site
draws from its own named RNG stream derived from the plan seed) plus an
optional list of *scripted* :class:`FaultEvent` windows for scenarios
that need faults at exact instants.  Because the simulation itself is
deterministic, the same plan against the same scenario produces the same
fault sequence — and therefore the same traces and reports — bit for
bit, which is what keeps the fault experiments cacheable and the
determinism tests meaningful.

Plans are plain frozen dataclasses so they canonicalize cleanly into the
parallel executor's cache keys.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields, replace

from repro.units import MS, US

_RATE_FIELDS = (
    "ipi_drop_rate",
    "ipi_delay_rate",
    "channel_fail_rate",
    "channel_stale_rate",
    "daemon_jitter_rate",
    "daemon_stall_rate",
    "freeze_fail_rate",
    "dom0_burst_rate",
    "daemon_crash_rate",
    "balancer_outage_rate",
)

#: Valid ``FaultEvent.site`` names.  The transient sites arrived with the
#: original fault model; the crash-stop sites (``daemon_crash``,
#: ``vcpu_hang``, ``balancer_outage``) model process-level failures that
#: need an explicit recovery protocol rather than in-place retry.
SCRIPTED_SITES = (
    "daemon_stall",
    "dom0_burst",
    "daemon_crash",
    "vcpu_hang",
    "balancer_outage",
)


@dataclass(frozen=True)
class FaultConfig:
    """Per-site stochastic fault rates and magnitudes.

    All rates are per-opportunity probabilities in ``[0, 1]`` — e.g.
    ``ipi_drop_rate`` applies to every reschedule IPI send, and
    ``channel_fail_rate`` to every channel read.  The zero config (the
    default) injects nothing and changes nothing.
    """

    #: Probability a reschedule IPI is lost entirely (guest-visible
    #: interrupt dropped; the hypervisor-side wake of a blocked target
    #: still happens, matching Xen's evtchn pending-bit semantics).
    ipi_drop_rate: float = 0.0
    #: Probability a reschedule IPI is delayed instead of delivered.
    ipi_delay_rate: float = 0.0
    #: Mean of the (exponential) injected IPI delay.
    ipi_delay_mean_ns: int = 200 * US
    #: Probability one channel read fails with :class:`ChannelReadError`.
    channel_fail_rate: float = 0.0
    #: Probability one channel read returns stale extendability data.
    channel_stale_rate: float = 0.0
    #: Probability a daemon wakeup is jittered late.
    daemon_jitter_rate: float = 0.0
    #: Mean of the (exponential) injected wakeup jitter.
    daemon_jitter_mean_ns: int = 2 * MS
    #: Probability a daemon wakeup stalls for multiple whole periods.
    daemon_stall_rate: float = 0.0
    #: Length of an injected stall, in polling periods.
    daemon_stall_periods: int = 4
    #: Probability a freeze/unfreeze syscall fails transiently.
    freeze_fail_rate: float = 0.0
    #: Probability one dom0/libxl sweep lands in an overload burst.
    dom0_burst_rate: float = 0.0
    #: Latency multiplier applied to a bursting dom0 sweep.
    dom0_burst_factor: float = 8.0
    #: Probability one daemon wakeup crashes the daemon process instead
    #: of completing (crash-stop: all volatile control state is lost and
    #: must be rebuilt from durable xenstore state on restart).
    daemon_crash_rate: float = 0.0
    #: How long a crashed daemon stays down before its restart path runs.
    daemon_restart_delay_ns: int = 20 * MS
    #: Probability one balancer poll finds dom0's balancer unresponsive.
    balancer_outage_rate: float = 0.0
    #: Length of a stochastic balancer outage, in polling periods.
    balancer_outage_periods: int = 2

    def __post_init__(self) -> None:
        for name in _RATE_FIELDS:
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if self.ipi_delay_mean_ns <= 0:
            raise ValueError("ipi_delay_mean_ns must be positive")
        if self.daemon_jitter_mean_ns <= 0:
            raise ValueError("daemon_jitter_mean_ns must be positive")
        if self.daemon_stall_periods < 1:
            raise ValueError("daemon_stall_periods must be at least 1")
        if self.dom0_burst_factor < 1.0:
            raise ValueError("dom0_burst_factor must be at least 1.0")
        if self.daemon_restart_delay_ns <= 0:
            raise ValueError("daemon_restart_delay_ns must be positive")
        if self.balancer_outage_periods < 1:
            raise ValueError("balancer_outage_periods must be at least 1")

    @property
    def any_enabled(self) -> bool:
        """True when at least one fault site has a nonzero rate."""
        return any(getattr(self, name) > 0.0 for name in _RATE_FIELDS)

    @classmethod
    def scaled(cls, rate: float, **overrides) -> "FaultConfig":
        """The uniform profile used by the fault-matrix experiment.

        One knob drives every site: per-event sites take ``rate``
        directly, while the heavy whole-period faults (IPI loss, daemon
        stalls) are derated so a 10% matrix point stresses the loop
        without starving it outright.  Crash-stop sites (daemon crash,
        balancer outage) stay at zero — they belong to the chaos
        profiles, and enabling them here would shift the pinned
        fault-matrix goldens.
        """
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {rate}")
        base = dict(
            ipi_drop_rate=rate * 0.5,
            ipi_delay_rate=rate,
            channel_fail_rate=rate,
            channel_stale_rate=rate,
            daemon_jitter_rate=rate,
            daemon_stall_rate=rate * 0.25,
            freeze_fail_rate=rate,
            dom0_burst_rate=rate,
        )
        base.update(overrides)
        return cls(**base)

    def describe(self) -> str:
        """Short ``site=rate`` summary of the enabled sites."""
        parts = [
            f"{name.removesuffix('_rate')}={getattr(self, name):g}"
            for name in _RATE_FIELDS
            if getattr(self, name) > 0.0
        ]
        return ", ".join(parts) if parts else "no faults"


@dataclass(frozen=True)
class FaultEvent:
    """A scripted fault window, for scenarios that need exact timing.

    Scripted events complement the stochastic rates: ``site`` names the
    injection point (one of :data:`SCRIPTED_SITES`), ``at_ns`` when the
    window opens, ``duration_ns`` how long it lasts, and ``magnitude`` a
    site-specific strength (stall length in periods, burst latency
    factor, hung vCPU index for ``vcpu_hang``).  Each event fires at
    most once, except ``vcpu_hang`` onsets which are scheduled eagerly.
    """

    at_ns: int
    site: str
    duration_ns: int = 0
    magnitude: float = 1.0

    def __post_init__(self) -> None:
        if self.at_ns < 0:
            raise ValueError("at_ns cannot be negative")
        if self.duration_ns < 0:
            raise ValueError("duration_ns cannot be negative")
        if self.site not in SCRIPTED_SITES:
            raise ValueError(f"unknown scripted fault site {self.site!r}")


@dataclass(frozen=True)
class FaultPlan:
    """A seeded fault schedule: stochastic rates + scripted events."""

    config: FaultConfig = FaultConfig()
    seed: int = 0
    events: tuple[FaultEvent, ...] = ()

    def __post_init__(self) -> None:
        # Normalize (sort by time) so equal plans hash/canonicalize equally.
        ordered = tuple(sorted(self.events, key=lambda e: (e.at_ns, e.site)))
        object.__setattr__(self, "events", ordered)

    @property
    def active(self) -> bool:
        """True when the plan can inject anything at all."""
        return self.config.any_enabled or bool(self.events)

    def with_seed(self, seed: int) -> "FaultPlan":
        return replace(self, seed=seed)

    # ------------------------------------------------------------------
    # JSON round-trip — chaos schedules must be saveable for replay and
    # bug reports, so a plan serializes to stable, sorted-key JSON and
    # deserializes to an equal plan (events re-sort canonically).
    # ------------------------------------------------------------------
    def to_json(self) -> str:
        payload = {
            "config": asdict(self.config),
            "seed": self.seed,
            "events": [asdict(event) for event in self.events],
        }
        return json.dumps(payload, sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed fault plan JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise ValueError("fault plan JSON must be an object")
        if set(payload) != {"config", "seed", "events"}:
            raise ValueError(
                "fault plan JSON must have exactly the keys "
                f"config/seed/events, got {sorted(payload)}"
            )
        known = {f.name for f in fields(FaultConfig)}
        raw_config = payload.get("config", {})
        if not isinstance(raw_config, dict):
            raise ValueError("fault plan 'config' must be an object")
        unknown = sorted(set(raw_config) - known)
        if unknown:
            raise ValueError(f"unknown fault config fields: {unknown}")
        raw_events = payload.get("events", [])
        if not isinstance(raw_events, list):
            raise ValueError("fault plan 'events' must be a list")
        event_fields = {f.name for f in fields(FaultEvent)}
        events = []
        for raw in raw_events:
            if not isinstance(raw, dict) or not set(raw) <= event_fields:
                raise ValueError(f"malformed fault event entry: {raw!r}")
            try:
                events.append(FaultEvent(**raw))
            except TypeError as exc:
                raise ValueError(f"malformed fault event entry: {raw!r}") from exc
        try:
            config = FaultConfig(**raw_config)
        except TypeError as exc:
            raise ValueError(f"malformed fault config: {exc}") from exc
        return cls(
            config=config,
            seed=int(payload.get("seed", 0)),
            events=tuple(events),
        )


#: Convenience: the plan that injects nothing.
NO_FAULTS = FaultPlan()
