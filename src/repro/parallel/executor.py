"""Process-pool executor for grid-shaped experiments.

Every headline figure is a grid of fully independent simulation cells —
(app x config x spincount x seed) — and each cell is a deterministic
function of its parameters.  The executor runs a grid's
:class:`CellSpec`s inline when there is one worker or one cell, and
otherwise through one process pool, and returns the results in
submission order, so parallel and serial execution are bit-for-bit
identical (``tests/experiments/test_determinism.py`` enforces this).

Every call runs every cell: nothing is memoized, so a run under
``REPRO_SANITIZE`` or with tracing on really executes its cells.  A cell
that raises fails the run and cancels the queued cells; so does a lost
worker process (``BrokenProcessPool``).  Cells are deterministic, so a
retry would fail the same way.

``REPRO_JOBS`` (read by :func:`get_default_executor` and the constructor
default) sets the worker-process count; it defaults to
``os.cpu_count()``, and ``1`` runs cells inline in the calling process.
Cells also run inline while ``REPRO_TRACE`` is set: that capture numbers
and closes its trace files in one process (see
:mod:`repro.tracelog.capture`).
"""

from __future__ import annotations

import concurrent.futures
import multiprocessing
import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping

from repro.parallel.telemetry import CellRecord, Telemetry

ENV_JOBS = "REPRO_JOBS"


def jobs_from_env() -> int:
    raw = os.environ.get(ENV_JOBS, "").strip()
    if raw:
        return max(1, int(raw))
    return os.cpu_count() or 1


@dataclass(frozen=True)
class CellSpec:
    """One named, independently-runnable cell of an experiment grid.

    ``fn`` must be a module-level callable (picklable by reference) and
    ``kwargs`` must contain everything that determines the result —
    including the seed and work scale — so a worker process can rerun it.
    """

    experiment: str
    name: str
    fn: Callable[..., Any]
    kwargs: Mapping[str, Any] = field(default_factory=dict)


def _invoke(payload: tuple[Callable, dict]) -> tuple[Any, float, float]:
    """Worker-side cell execution (top-level, hence picklable)."""
    fn, kwargs = payload
    started = time.time()  # det: allow (telemetry, not simulation state)
    value = fn(**kwargs)
    return value, started, time.time()  # det: allow (telemetry)


def _pool_context():
    """Prefer fork (cheap, inherits imports); fall back to the default."""
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


class ParallelExecutor:
    """Runs cell grids across a process pool, results in submission order."""

    def __init__(
        self, jobs: int | None = None, telemetry: Telemetry | None = None
    ) -> None:
        self.jobs = max(1, jobs if jobs is not None else jobs_from_env())
        self.telemetry = telemetry if telemetry is not None else Telemetry()

    def run_cells(self, specs: Iterable[CellSpec]) -> list[Any]:
        """Run every cell and return the results in submission order."""
        specs = list(specs)
        payloads = [(spec.fn, dict(spec.kwargs)) for spec in specs]
        if self.jobs == 1 or len(specs) <= 1 or os.environ.get("REPRO_TRACE"):
            return self._collect(specs, map(_invoke, payloads))
        pool = concurrent.futures.ProcessPoolExecutor(
            max_workers=min(self.jobs, len(specs)), mp_context=_pool_context()
        )
        try:
            return self._collect(specs, pool.map(_invoke, payloads))
        finally:
            # On a raising cell or a lost worker, drop the queued cells
            # rather than wait for them.
            pool.shutdown(wait=False, cancel_futures=True)

    def run_cell(self, spec: CellSpec) -> Any:
        """Convenience wrapper for a single cell."""
        return self.run_cells([spec])[0]

    def _collect(
        self, specs: list[CellSpec], outcomes: Iterable[tuple[Any, float, float]]
    ) -> list[Any]:
        results = []
        for spec, (value, started, finished) in zip(specs, outcomes):
            self.telemetry.record(
                CellRecord(spec.experiment, spec.name, started, finished)
            )
            results.append(value)
        return results


_DEFAULT: ParallelExecutor | None = None


def get_default_executor() -> ParallelExecutor:
    """The process-wide executor used when callers don't pass their own.

    Configured from the environment on first use; its telemetry
    aggregates across every experiment run in the process (the benchmark
    suite prints it at session end).
    """
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = ParallelExecutor(jobs=jobs_from_env())
    return _DEFAULT
