"""Counters for crash-stop faults and their recovery protocols.

Kept separate from :class:`repro.faults.injector.FaultStats` on purpose:
the transient-fault counters are embedded (via ``asdict``) in the pinned
fault-matrix goldens, so growing that dataclass would shift every golden
byte.  Crash/recovery accounting lives here instead and is attached to
the injector as ``FaultInjector.recovery``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass


@dataclass
class RecoveryStats:
    """What crashed, what recovered, and how long recovery took."""

    #: Daemon crash-stop events injected (process state lost).
    daemon_crashes: int = 0
    #: Daemon restart paths executed after a crash.
    daemon_restarts: int = 0
    #: Restarts that found durable state in xenstore and restored it.
    state_restores: int = 0
    #: Restarts that completed a full post-crash reconvergence cycle.
    recoveries: int = 0
    #: Sum of epochs-to-reconverge over all completed recoveries.
    recovery_epochs_total: int = 0
    #: Worst single recovery, in epochs.
    recovery_epochs_max: int = 0
    #: vCPU hangs injected.
    hangs_injected: int = 0
    #: Hangs cleared by a watchdog freeze/unfreeze cycle.
    watchdog_clears: int = 0
    #: Balancer outage onsets observed by the dom0 poll loop.
    balancer_outages: int = 0
    #: Full re-sync sweeps run when the balancer came back.
    balancer_resyncs: int = 0
    #: Per-domain naive fallback decisions taken while degraded.
    naive_fallback_decisions: int = 0

    def to_dict(self) -> dict:
        return asdict(self)
