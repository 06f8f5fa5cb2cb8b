"""The vScale user-space daemon.

The daemon is a real-time-class thread pinned to vCPU0.  Every period it
reads the VM's CPU extendability through the vScale channel and, when the
optimal vCPU count differs from the current online count, drives the
balancer to freeze or unfreeze vCPUs — highest index frozen first, lowest
unfrozen first, so vCPU0 (the master) is always online.

The daemon is an *optional service*: applications that pin threads or
assume a fixed processor count can switch it off with
:meth:`VScaleDaemon.disable`, matching the paper's flexibility principle.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING

from repro.core.balancer import VScaleBalancer
from repro.core.channel import VScaleChannel
from repro.faults.errors import ChannelReadError, FreezeFailure
from repro.guest.actions import BlockOn, Compute, SpinFlag
from repro.units import MS, US

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.guest.kernel import GuestKernel
    from repro.guest.threads import Thread


#: Never scale below this many online vCPUs (vCPU0, the master, stays).
MIN_VCPUS = 1
#: Limit on freeze/unfreeze steps per wakeup.
MAX_STEPS_PER_WAKEUP = 8
#: Fraction of a pCPU the partial allocation must reach before the
#: conservative rounding adds the extra vCPU.
PARTIAL_THRESHOLD = 0.8
#: Base backoff spent between channel-read retries; doubles per attempt.
RETRY_BACKOFF_NS = 50 * US


@dataclass
class DaemonConfig:
    """Daemon policy knobs."""

    #: Polling period.  The hypervisor recomputes every 10 ms; polling at
    #: the same rate keeps reaction latency within one recalculation.
    period_ns: int = 10 * MS
    #: Consecutive observations of a *smaller* optimum required before
    #: freezing (hysteresis against transient dips).  Growth is immediate:
    #: unfreezing early only costs a little fragmentation, while freezing
    #: late wastes the whole benefit.
    shrink_patience: int = 2
    #: How to round the extendability (in pCPUs) into a vCPU target.
    #: Algorithm 1 ceils, granting one extra vCPU for a partial allocation.
    #: For busy-waiting workloads that extra vCPU dilutes every sibling
    #: (the guest spreads load evenly, so 3.2 pCPUs over 4 vCPUs = 0.8
    #: each — and spinning turns the missing 20% into team-wide stalls).
    #: The default policy therefore only takes the extra vCPU once the
    #: partial allocation is worth most of a pCPU.  The ceil/floor choice
    #: is ablated in benchmarks/test_ablations.py.
    round_mode: str = "conservative"  # "ceil" | "floor" | "conservative"

    # -- graceful-degradation knobs (all off by default: the happy-path
    #    daemon behaves exactly as before; fault experiments enable them
    #    via :meth:`hardened`). ------------------------------------------
    #: Extra attempts after a failed channel read before giving up on the
    #: period (the read itself is attempt 0).
    max_read_retries: int = 2
    #: Ignore readings whose publish timestamp is older than this and hold
    #: the last-known-good vCPU count instead.  0 disables the guard.
    staleness_limit_ns: int = 0
    #: Minimum time between direction reversals (grow→shrink or back).
    #: A reversal arriving sooner is suppressed.  0 disables hysteresis.
    dwell_ns: int = 0
    #: Declare a missed period when the daemon wakes more than this many
    #: periods late, and resynchronize the timer.  0 disables the watchdog.
    watchdog_slack_periods: float = 0.0
    #: Publish the hysteresis state (dwell direction, shrink votes) to a
    #: single xenstore key after every decision, and restore it on restart
    #: after a crash.  Off by default: the happy-path daemon never touches
    #: xenstore for its own state.
    durable_state: bool = False

    @classmethod
    def hardened(cls, **overrides) -> "DaemonConfig":
        """The degradation-enabled profile used by the fault experiments:
        staleness guard at 5 periods, half-period dwell, watchdog at 1.5
        periods of slack."""
        base = cls(**overrides)
        params = asdict(base)
        if base.staleness_limit_ns == 0:
            params["staleness_limit_ns"] = 5 * base.period_ns
        if base.dwell_ns == 0:
            params["dwell_ns"] = base.period_ns // 2
        if base.watchdog_slack_periods == 0.0:
            params["watchdog_slack_periods"] = 1.5
        return cls(**params)

    @classmethod
    def crash_hardened(cls, **overrides) -> "DaemonConfig":
        """The crash-recovery profile used by the chaos experiments:
        :meth:`hardened` plus durable xenstore state, so a restarted
        daemon resumes its dwell hysteresis instead of relearning it."""
        base = cls.hardened(**overrides)
        params = asdict(base)
        params["durable_state"] = True
        return cls(**params)


@dataclass
class DaemonStats:
    """Control-loop health counters for the fault/stability reports."""

    #: Channel reads that raised (before any retry accounting).
    read_failures: int = 0
    #: Retries actually performed after a failure.
    read_retries: int = 0
    #: Periods abandoned because every retry failed.
    read_abandons: int = 0
    #: Readings served stale by fault injection (observed, may still act).
    stale_reads: int = 0
    #: Periods where the staleness guard held the last-known-good count.
    stale_holds: int = 0
    #: Freeze/unfreeze syscalls that failed transiently.
    reconfig_failures: int = 0
    #: Direction reversals that happened (flap pressure indicator).
    direction_flaps: int = 0
    #: Reversals suppressed by the dwell-time hysteresis.
    flaps_suppressed: int = 0
    #: Whole periods the daemon detected it slept through.
    missed_periods: int = 0
    #: Watchdog firings (each one resynchronizes the timer).
    watchdog_resyncs: int = 0

    def to_dict(self) -> dict:
        return asdict(self)


class VScaleDaemon:
    """Monitors extendability and reconfigures vCPUs through the balancer."""

    def __init__(
        self,
        kernel: "GuestKernel",
        config: DaemonConfig | None = None,
        channel: VScaleChannel | None = None,
        balancer: VScaleBalancer | None = None,
    ):
        self.kernel = kernel
        self.config = config or DaemonConfig()
        self.channel = channel or VScaleChannel(kernel.domain)
        self.balancer = balancer or VScaleBalancer(kernel)
        self.enabled = True
        self._shrink_votes = 0
        self.decisions = 0
        self.reconfigurations = 0
        self.stats = DaemonStats()
        #: Hysteresis state: direction of the last applied change (+1 grow,
        #: -1 shrink) and when it was applied.
        self._last_direction = 0
        self._last_change_ns = 0
        #: Set at restart after a crash; cleared (and folded into the
        #: recovery-epoch counters) by the first period that completes a
        #: fresh channel read — the reconvergence bound.
        self._recovering_since: int | None = None
        #: Last durable-state payload written, for write-on-change gating.
        self._published: str | None = None
        #: (time_ns, online_vcpus) trace for Figure 8.
        self.trace: list[tuple[int, int]] = []
        self.thread: "Thread | None" = None

    # ------------------------------------------------------------------
    def install(self) -> "Thread":
        """Spawn the daemon thread (RT class, pinned to vCPU0)."""
        if self.thread is not None:
            raise RuntimeError("daemon already installed")
        self.thread = self.kernel.spawn(
            self._behavior(), name="vscaled", rt=True, pinned_to=0
        )
        return self.thread

    def disable(self) -> None:
        self.enabled = False

    # ------------------------------------------------------------------
    def _behavior(self):
        """The daemon loop as a thread behaviour.

        The loop survives every injected fault: failed reads are retried
        with exponential backoff and the period is abandoned (holding the
        current vCPU count) when the retries run out; expired readings are
        ignored by the staleness guard; failed freeze/unfreeze syscalls
        abort the rest of the plan for the period; a watchdog detects
        slept-through periods and resets the shrink-vote chain whose
        observations are no longer consecutive.

        Crash-stop faults are modeled in-loop: a ``daemon_crash`` decision
        from the injector wipes all volatile control state, parks the
        thread for the restart delay, then runs the :meth:`_recover`
        protocol before the next period.
        """
        kernel = self.kernel
        cfg = self.config
        while True:
            armed_at = kernel.sim.now
            delay = cfg.period_ns
            faults = kernel.machine.faults
            if faults is not None:
                delay += faults.daemon_delay_ns(armed_at, cfg.period_ns)
            timer = SpinFlag("vscaled.timer")
            kernel.start_timer(delay, timer)
            yield BlockOn(timer)
            if not self.enabled:
                continue
            if faults is not None:
                restart_ns = faults.daemon_crash(kernel.sim.now, cfg.period_ns)
                if restart_ns is not None:
                    # Crash-stop: every piece of in-memory control state is
                    # lost; the daemon is down until its restart fires.
                    self._shrink_votes = 0
                    self._last_direction = 0
                    self._last_change_ns = 0
                    self._published = None
                    kernel.machine.tracer.emit(
                        kernel.sim.now, "fault", "daemon_crash",
                        kernel.domain.name, down_ns=restart_ns,
                    )
                    restart = SpinFlag("vscaled.restart")
                    kernel.start_timer(restart_ns, restart)
                    yield BlockOn(restart)
                    self._recover(faults)
                    continue
            if cfg.watchdog_slack_periods > 0.0:
                late_ns = kernel.sim.now - armed_at - cfg.period_ns
                if late_ns > cfg.watchdog_slack_periods * cfg.period_ns:
                    self.stats.missed_periods += max(1, late_ns // cfg.period_ns)
                    self.stats.watchdog_resyncs += 1
                    self._shrink_votes = 0
                    kernel.machine.tracer.emit(
                        kernel.sim.now, "vscale", "watchdog_resync",
                        kernel.domain.name, late_ns=late_ns,
                    )
            reading = None
            for attempt in range(cfg.max_read_retries + 1):
                try:
                    reading = self.channel.read_info()
                except ChannelReadError as exc:
                    self.stats.read_failures += 1
                    yield Compute(exc.cost_ns)
                    if attempt < cfg.max_read_retries:
                        self.stats.read_retries += 1
                        yield Compute(RETRY_BACKOFF_NS << attempt)
                    continue
                yield Compute(reading.cost_ns)
                break
            if reading is None:
                # Every retry failed: degrade by holding the current count
                # until next period rather than guessing.
                self.stats.read_abandons += 1
                continue
            if reading.stale:
                self.stats.stale_reads += 1
            if (
                cfg.staleness_limit_ns > 0
                and reading.published_at_ns is not None
                and kernel.sim.now - reading.published_at_ns > cfg.staleness_limit_ns
            ):
                # Expired data: hold the last-known-good vCPU count.
                self.stats.stale_holds += 1
                continue
            if self._recovering_since is not None and faults is not None:
                # Reconverged: a fresh reading is in hand, so decisions are
                # live again.  Account the epochs the recovery spanned.
                elapsed = kernel.sim.now - self._recovering_since
                epochs = max(1, -(-elapsed // cfg.period_ns))
                recovery = faults.recovery
                recovery.recoveries += 1
                recovery.recovery_epochs_total += epochs
                recovery.recovery_epochs_max = max(
                    recovery.recovery_epochs_max, epochs
                )
                self._recovering_since = None
            target = self._round_target(reading.extendability_ns, reading.n_opt)
            steps = self._decide(target)
            self._publish_state()
            applied = 0
            for index, freeze in steps:
                try:
                    if freeze:
                        self.balancer.freeze(index)
                    else:
                        self.balancer.unfreeze(index)
                except FreezeFailure:
                    # Transient syscall failure: the master already paid
                    # the cost; abandon the rest of the plan this period.
                    self.stats.reconfig_failures += 1
                    yield Compute(0)
                    break
                self.reconfigurations += 1
                applied += 1
                # The master-side cost was charged to rq0 by the balancer;
                # yield a zero-compute so it is consumed before continuing.
                yield Compute(0)
            if applied:
                self.trace.append((kernel.sim.now, kernel.online_vcpus))
                kernel.machine.tracer.emit(
                    kernel.sim.now, "vscale", "decision", kernel.domain.name,
                    online=kernel.online_vcpus,
                    extendability_ns=reading.extendability_ns,
                )

    # ------------------------------------------------------------------
    # Crash recovery
    # ------------------------------------------------------------------
    def _state_path(self) -> str:
        return f"/vscale/{self.kernel.domain.name}/daemon/state"

    def _publish_state(self) -> None:
        """Publish the hysteresis state as ONE xenstore key (one JSON
        value), so a reader never sees a torn multi-key update; single-key
        commits are atomic.  Write-on-change keeps the store quiet."""
        if not self.config.durable_state:
            return
        payload = json.dumps(
            {
                "direction": self._last_direction,
                "last_change_ns": self._last_change_ns,
                "shrink_votes": self._shrink_votes,
            },
            sort_keys=True,
        )
        if payload == self._published:
            return
        self._published = payload
        self.kernel.machine.xenstore.write(self._state_path(), payload)

    def _recover(self, faults) -> None:
        """Restart protocol: rebuild the control state after a crash.

        With durable state enabled the last committed xenstore snapshot is
        reloaded (a crash between write and commit simply reads the
        previous complete state — never a torn one).  Without it the
        daemon relearns its hysteresis from scratch; either way the
        reconvergence clock starts now and stops at the first fresh read.
        """
        kernel = self.kernel
        faults.recovery.daemon_restarts += 1
        self._recovering_since = kernel.sim.now
        if self.config.durable_state:
            store = kernel.machine.xenstore
            path = self._state_path()
            if store.exists(path):
                try:
                    saved = json.loads(store.read(path))
                except ValueError:
                    saved = None
                if isinstance(saved, dict):
                    self._last_direction = int(saved.get("direction", 0))
                    self._last_change_ns = int(saved.get("last_change_ns", 0))
                    self._shrink_votes = int(saved.get("shrink_votes", 0))
                    faults.recovery.state_restores += 1
        kernel.machine.tracer.emit(
            kernel.sim.now, "vscale", "daemon_restart", kernel.domain.name
        )

    def _round_target(self, extendability_ns: int, n_opt: int) -> int:
        """Turn extendability into a vCPU target per the rounding policy.

        ``n_opt`` is the hypervisor's ceil-rounded suggestion (Algorithm 1
        line 11/18); the daemon may round more conservatively — see
        :attr:`DaemonConfig.round_mode`.
        """
        mode = self.config.round_mode
        if mode == "ceil":
            return n_opt
        pcpus = extendability_ns / self.channel.domain.machine.config.vscale_period_ns
        import math

        if mode == "floor":
            return max(1, math.floor(pcpus + 1e-9))
        if mode == "conservative":
            base = math.floor(pcpus + 1e-9)
            fraction = pcpus - base
            if fraction >= PARTIAL_THRESHOLD:
                base += 1
            return max(1, base)
        raise ValueError(f"unknown round_mode {mode!r}")

    def _decide(self, n_opt: int) -> list[tuple[int, bool]]:
        """Map the optimal count to concrete freeze/unfreeze steps."""
        self.decisions += 1
        kernel = self.kernel
        total = len(kernel.runqueues)
        target = max(MIN_VCPUS, min(n_opt, total))
        online = kernel.online_vcpus
        if target < online:
            self._shrink_votes += 1
            if self._shrink_votes < self.config.shrink_patience:
                return []
        else:
            self._shrink_votes = 0
        if target == online:
            return []
        direction = 1 if target > online else -1
        if self._last_direction != 0 and direction != self._last_direction:
            if (
                self.config.dwell_ns > 0
                and kernel.sim.now - self._last_change_ns < self.config.dwell_ns
            ):
                # Dwell-time hysteresis: a reversal this soon after the
                # last change is flapping, not a real demand shift.
                self.stats.flaps_suppressed += 1
                return []
            self.stats.direction_flaps += 1
        self._last_direction = direction
        self._last_change_ns = kernel.sim.now
        steps: list[tuple[int, bool]] = []
        if target > online:
            frozen = sorted(kernel.cpu_freeze_mask)
            for index in frozen[: target - online]:
                steps.append((index, False))
        else:
            online_set = [
                i for i in range(total) if i not in kernel.cpu_freeze_mask and i != 0
            ]
            for index in sorted(online_set, reverse=True)[: online - target]:
                steps.append((index, True))
        return steps[:MAX_STEPS_PER_WAKEUP]

    # ------------------------------------------------------------------
    def vcpu_trace(self) -> list[tuple[int, int]]:
        """The (time, online vCPUs) trace, for Figure 8."""
        return list(self.trace)
