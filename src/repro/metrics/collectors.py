"""Measurement primitives used across the simulation stack.

Each collector is intentionally tiny: the hot paths of the credit scheduler
and guest kernels call into these on every state change, so they only do
arithmetic and defer any statistics to summary time.
"""

from __future__ import annotations

import math


class Counter:
    """A monotonically increasing event counter."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def __int__(self) -> int:
        return self.value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.value})"


class StateTimer:
    """Accumulate time spent in named states.

    The hypervisor uses one of these per vCPU to answer "how long was this
    vCPU running / runnable-but-waiting / blocked" — the waiting figure is
    the paper's headline metric (Figure 9).
    """

    __slots__ = ("_state", "_since", "totals")

    def __init__(self, initial_state: str, now: int = 0):
        self._state = initial_state
        self._since = now
        self.totals: dict[str, int] = {}

    @property
    def state(self) -> str:
        return self._state

    def transition(self, new_state: str, now: int) -> None:
        """Close the current state interval and open a new one."""
        elapsed = now - self._since
        if elapsed < 0:
            raise ValueError("StateTimer observed time going backwards")
        self.totals[self._state] = self.totals.get(self._state, 0) + elapsed
        self._state = new_state
        self._since = now

    def flush(self, now: int) -> None:
        """Fold the in-progress interval into the totals (idempotent)."""
        self.transition(self._state, now)

    def total(self, state: str) -> int:
        return self.totals.get(state, 0)


class LatencyReservoir:
    """Store individual latency samples for percentile reporting.

    The experiments record at most a few hundred thousand samples per run, so
    a plain list plus on-demand sorting is the simplest correct structure.
    """

    __slots__ = ("samples",)

    def __init__(self) -> None:
        self.samples: list[int] = []

    def record(self, value: int) -> None:
        self.samples.append(value)

    def __len__(self) -> int:
        return len(self.samples)

    def percentile(self, fraction: float) -> int:
        """Nearest-rank percentile; ``fraction`` in [0, 1]."""
        if not self.samples:
            raise ValueError("no samples recorded")
        ordered = sorted(self.samples)
        rank = min(len(ordered) - 1, max(0, math.ceil(fraction * len(ordered)) - 1))
        return ordered[rank]

    def mean(self) -> float:
        if not self.samples:
            raise ValueError("no samples recorded")
        return sum(self.samples) / len(self.samples)

    def min(self) -> int:
        return min(self.samples)

    def max(self) -> int:
        return max(self.samples)

    def cdf(self) -> list[tuple[int, float]]:
        """Return (value, cumulative_fraction) points for plotting."""
        ordered = sorted(self.samples)
        n = len(ordered)
        return [(value, (i + 1) / n) for i, value in enumerate(ordered)]
