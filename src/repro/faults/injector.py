"""The fault injector: turns a :class:`FaultPlan` into runtime decisions.

One injector is installed per :class:`~repro.hypervisor.machine.Machine`
(``machine.install_faults(plan)``) and consulted from the fault sites:

* ``Machine.hyp_send_ipi`` — lost/delayed reschedule IPIs;
* ``VScaleChannel.read_info`` — failed or stale extendability reads;
* ``VScaleDaemon._behavior`` — wakeup jitter and multi-period stalls;
* ``VScaleBalancer.freeze/unfreeze`` — transient syscall failures;
* ``Dom0Toolstack.sample_read_all_ns`` — overload bursts.

Every site draws from its own named stream derived from the *plan* seed
(not the machine seed), so fault decisions never perturb the workload's
randomness and the same plan replays the same fault sequence exactly.
All decisions are made lazily at query time; a site whose rate is zero
performs no RNG draw at all.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from repro.faults.plan import FaultEvent, FaultPlan
from repro.hypervisor.irq import IRQClass
from repro.recovery.stats import RecoveryStats
from repro.sim.rng import BufferedStream, SeedSequenceFactory


@dataclass
class FaultStats:
    """What the injector actually did, for reports and stability checks."""

    ipis_dropped: int = 0
    ipis_delayed: int = 0
    #: Delayed IPIs that found their target frozen on arrival and were
    #: discarded (delivering them would be a correctness bug).
    ipis_dropped_late: int = 0
    channel_failures: int = 0
    channel_stale_reads: int = 0
    daemon_jitters: int = 0
    daemon_stalls: int = 0
    freeze_failures: int = 0
    dom0_bursts: int = 0

    @property
    def total_injected(self) -> int:
        return (
            self.ipis_dropped
            + self.ipis_delayed
            + self.channel_failures
            + self.channel_stale_reads
            + self.daemon_jitters
            + self.daemon_stalls
            + self.freeze_failures
            + self.dom0_bursts
        )

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class _ScriptedState:
    """Mutable tracking of which scripted events already fired."""

    consumed: set = field(default_factory=set)


class FaultInjector:
    """Stateful decision oracle for one machine's fault plan."""

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self.config = plan.config
        self.stats = FaultStats()
        self.recovery = RecoveryStats()
        self._seeds = SeedSequenceFactory(plan.seed)
        self._scripted = _ScriptedState()
        # Per-site buffered streams, cached so the hot decision paths skip
        # the factory's dict+format lookup on every query.
        self._hit_streams: dict[str, BufferedStream] = {}
        self._delay_streams: dict[str, BufferedStream] = {}
        # Balancer outage bookkeeping: end of the current stochastic
        # outage, plus which scripted outage windows already counted an
        # onset (windows span several polls but are one outage each).
        self._balancer_down_until = -1
        self._outage_onsets_seen: set[int] = set()

    # ------------------------------------------------------------------
    # Decision primitives
    # ------------------------------------------------------------------
    def _hit(self, site: str, rate: float) -> bool:
        if rate <= 0.0:
            return False
        stream = self._hit_streams.get(site)
        if stream is None:
            stream = self._seeds.stream(f"faults.{site}", "random")
            self._hit_streams[site] = stream
        return stream._next() < rate

    def _sample_delay(self, site: str, mean_ns: int) -> int:
        stream = self._delay_streams.get(site)
        if stream is None:
            stream = self._seeds.stream(f"faults.{site}", "exponential")
            self._delay_streams[site] = stream
        return max(1, round(mean_ns * stream._next()))

    def _take_scripted(self, site: str, window_start: int, window_end: int) -> FaultEvent | None:
        """Consume the first unfired scripted event of ``site`` whose start
        falls inside ``[window_start, window_end)``."""
        for index, event in enumerate(self.plan.events):
            if index in self._scripted.consumed or event.site != site:
                continue
            if window_start <= event.at_ns < window_end:
                self._scripted.consumed.add(index)
                return event
            if event.at_ns >= window_end:
                break
        return None

    # ------------------------------------------------------------------
    # Fault sites
    # ------------------------------------------------------------------
    def ipi_fault(self, irq_class: IRQClass) -> tuple[str, int] | None:
        """Decide the fate of one IPI send: None, ("drop", 0), ("delay", ns).

        Only reschedule IPIs are targeted — they ride Xen's event-channel
        upcall path, the lossy/delayable link; function-call IPIs are the
        rare shutdown path and are left alone.
        """
        if irq_class is not IRQClass.RESCHED_IPI:
            return None
        if self._hit("ipi.drop", self.config.ipi_drop_rate):
            self.stats.ipis_dropped += 1
            return ("drop", 0)
        if self._hit("ipi.delay", self.config.ipi_delay_rate):
            delay = self._sample_delay("ipi.delay_ns", self.config.ipi_delay_mean_ns)
            self.stats.ipis_delayed += 1
            return ("delay", delay)
        return None

    def note_late_drop(self) -> None:
        """A delayed IPI arrived at a frozen target and was discarded."""
        self.stats.ipis_dropped_late += 1

    def channel_fault(self) -> str | None:
        """Decide the fate of one channel read: None, "fail", or "stale"."""
        if self._hit("channel.fail", self.config.channel_fail_rate):
            self.stats.channel_failures += 1
            return "fail"
        if self._hit("channel.stale", self.config.channel_stale_rate):
            self.stats.channel_stale_reads += 1
            return "stale"
        return None

    def daemon_delay_ns(self, now_ns: int, period_ns: int) -> int:
        """Extra delay to add to the daemon's next wakeup timer."""
        extra = 0
        scripted = self._take_scripted("daemon_stall", now_ns, now_ns + period_ns)
        if scripted is not None:
            periods = max(1.0, scripted.magnitude)
            extra += scripted.duration_ns or round(periods * period_ns)
            self.stats.daemon_stalls += 1
        if self._hit("daemon.stall", self.config.daemon_stall_rate):
            extra += self.config.daemon_stall_periods * period_ns
            self.stats.daemon_stalls += 1
        elif self._hit("daemon.jitter", self.config.daemon_jitter_rate):
            extra += self._sample_delay(
                "daemon.jitter_ns", self.config.daemon_jitter_mean_ns
            )
            self.stats.daemon_jitters += 1
        return extra

    def freeze_fault(self) -> bool:
        """Whether one freeze/unfreeze syscall fails transiently."""
        if self._hit("freeze.fail", self.config.freeze_fail_rate):
            self.stats.freeze_failures += 1
            return True
        return False

    def dom0_factor(self, now_ns: int | None = None) -> float:
        """Latency multiplier for one dom0/libxl sweep (1.0 = no burst)."""
        if now_ns is not None:
            scripted = self._take_scripted("dom0_burst", now_ns, now_ns + 1)
            if scripted is not None:
                self.stats.dom0_bursts += 1
                return max(1.0, scripted.magnitude)
        if self._hit("dom0.burst", self.config.dom0_burst_rate):
            self.stats.dom0_bursts += 1
            return self.config.dom0_burst_factor
        return 1.0

    # ------------------------------------------------------------------
    # Crash-stop sites (recovery protocols live in repro.recovery and the
    # daemon/balancer control loops; the injector only decides *when*).
    # ------------------------------------------------------------------
    def daemon_crash(self, now_ns: int, period_ns: int) -> int | None:
        """Whether the daemon crash-stops during the period starting now.

        Returns the restart delay in ns (how long the process stays
        down) when a crash fires, else None.  Scripted ``daemon_crash``
        events use their ``duration_ns`` as the restart delay when set.

        The window reaches back to t=0: successive daemon polls are
        spaced ``period + work_time`` apart, so a forward-only window
        would leave gaps that silently swallow a scripted crash.  A
        crash-stop is not a transient — a past-due event fires at the
        next poll instead of being lost.
        """
        scripted = self._take_scripted("daemon_crash", 0, now_ns + period_ns)
        if scripted is not None:
            self.recovery.daemon_crashes += 1
            return scripted.duration_ns or self.config.daemon_restart_delay_ns
        if self._hit("daemon.crash", self.config.daemon_crash_rate):
            self.recovery.daemon_crashes += 1
            return self.config.daemon_restart_delay_ns
        return None

    def balancer_outage(self, now_ns: int, period_ns: int) -> bool:
        """Whether dom0's balancer is unresponsive at this poll."""
        for index, event in enumerate(self.plan.events):
            if event.site != "balancer_outage":
                continue
            if event.at_ns > now_ns:
                break
            if now_ns < event.at_ns + max(1, event.duration_ns):
                if index not in self._outage_onsets_seen:
                    self._outage_onsets_seen.add(index)
                    self.recovery.balancer_outages += 1
                return True
        if now_ns < self._balancer_down_until:
            return True
        if self._hit("balancer.outage", self.config.balancer_outage_rate):
            self.recovery.balancer_outages += 1
            self._balancer_down_until = (
                now_ns + self.config.balancer_outage_periods * period_ns
            )
            return True
        return False

    def hang_schedule(self) -> list[tuple[int, int]]:
        """Scripted vCPU hang onsets as ``(at_ns, vcpu_index)`` pairs.

        ``magnitude`` carries the target vCPU index; the watchdog
        schedules the onsets eagerly at install time, so unlike the
        window sites nothing is consumed lazily here.
        """
        return [
            (event.at_ns, int(event.magnitude))
            for event in self.plan.events
            if event.site == "vcpu_hang"
        ]
