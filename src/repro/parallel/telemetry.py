"""Per-cell execution telemetry for the parallel executor.

The executor records one :class:`CellRecord` per executed cell: its
wall-clock start and stop timestamps.  The runner prints the per-cell
lines and the final summary on stderr so the deterministic report text
on stdout stays byte-identical between serial and parallel runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class CellRecord:
    experiment: str
    cell: str
    #: Wall-clock epoch seconds.
    started: float
    finished: float

    @property
    def duration_s(self) -> float:
        return self.finished - self.started

    def render(self) -> str:
        return f"[cell] {self.experiment:10s} {self.cell:40s} {self.duration_s:7.2f}s"


@dataclass
class Telemetry:
    records: list[CellRecord] = field(default_factory=list)

    def record(self, record: CellRecord) -> None:
        self.records.append(record)

    def mark(self) -> int:
        """Bookmark the current record count (for per-experiment slices)."""
        return len(self.records)

    def executed_seconds(self, since: int = 0) -> float:
        """Total wall-clock seconds spent running cells."""
        return sum(r.duration_s for r in self.records[since:])

    def render_cells(self, since: int = 0) -> str:
        return "\n".join(r.render() for r in self.records[since:])

    def summary(self) -> str:
        return (
            f"[telemetry] cells={len(self.records)} "
            f"executed={self.executed_seconds():.1f}s"
        )

    def to_dict(self) -> dict:
        return {
            "executed_seconds": self.executed_seconds(),
            "cells": [
                {
                    "experiment": r.experiment,
                    "cell": r.cell,
                    "started": r.started,
                    "finished": r.finished,
                    "duration_s": r.duration_s,
                }
                for r in self.records
            ],
        }
