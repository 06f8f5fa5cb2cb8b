"""Binary trace streaming (``repro.tracelog``).

* :mod:`repro.tracelog.codec` — the ``RTLG`` binary format: varint-delta
  timestamps, interned strings, typed detail values.
* :mod:`repro.tracelog.capture` — ``REPRO_TRACE=path`` / ``capture_to``
  wiring of a streaming writer into every machine built.
* :mod:`repro.tracelog.render` / :mod:`repro.tracelog.stats` — Gantt
  timelines (ASCII + SVG) and wakeup-to-run latency distributions.
"""

from repro.tracelog.codec import TraceFormatError, TraceWriter, load
from repro.tracelog.capture import capture_to, maybe_install

__all__ = [
    "TraceFormatError",
    "TraceWriter",
    "load",
    "capture_to",
    "maybe_install",
]
