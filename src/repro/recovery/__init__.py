"""Crash-stop recovery protocols and the machine-state observer.

Three layers (see DESIGN.md §12):

* :mod:`repro.recovery.stats` — crash/recovery counters, attached to the
  fault injector as ``FaultInjector.recovery``;
* :mod:`repro.recovery.watchdog` — the guest-side vCPU hang watchdog;
* :mod:`repro.recovery.state` — ``state_dict``/``fingerprint``, the
  canonical view of a whole machine that tests compare between runs
  that must agree.
"""

from repro.recovery.state import fingerprint, state_dict
from repro.recovery.stats import RecoveryStats
from repro.recovery.watchdog import HangWatchdog

__all__ = [
    "HangWatchdog",
    "RecoveryStats",
    "fingerprint",
    "state_dict",
]
