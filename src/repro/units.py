"""Time and resource units used throughout the simulation.

All simulated time is kept in **integer nanoseconds**.  Integer arithmetic
keeps the event queue deterministic: two runs with the same seed produce
bit-identical schedules, which the regression tests rely on.  Durations are
written as multiples of the constants below (``5 * MS``).
"""

from __future__ import annotations

#: One microsecond in nanoseconds.
US = 1_000
#: One millisecond in nanoseconds.
MS = 1_000_000
#: One second in nanoseconds.
SEC = 1_000_000_000
