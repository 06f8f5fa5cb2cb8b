"""Process-pool executor for grid-shaped experiments.

Every headline figure is a grid of fully independent simulation cells —
(app x config x spincount x seed) — and each cell is a deterministic
function of its parameters.  The executor decomposes a grid into
:class:`CellSpec`s, runs the misses concurrently across worker
processes, serves prior results from the content-addressed
:class:`~repro.parallel.cache.ResultCache`, and reassembles everything
in submission order, so parallel and serial execution are bit-for-bit
identical (``tests/experiments/test_determinism.py`` enforces this).

The pool path is failure-tolerant: a cell that exceeds the per-cell
timeout or loses its worker process (segfault, OOM kill) is retried up
to ``max_retries`` times in a fresh pool, then re-executed serially in
the calling process as a last resort — the grid completes and the
recovery is recorded in telemetry instead of aborting the run.  Because
cells are deterministic, re-execution is always safe.  Exceptions
*raised by the cell function itself* still propagate: those are bugs,
not flakiness.

Environment knobs (read by :func:`get_default_executor` and the
constructor defaults):

``REPRO_JOBS``
    Worker-process count; defaults to ``os.cpu_count()``.  ``1`` runs
    cells inline in the calling process.
``REPRO_CACHE``
    ``1``/``on`` enables the on-disk result cache for library calls;
    ``0``/``off`` disables it even when ``REPRO_CACHE_DIR`` is set.
    (The CLI runner enables the cache by default; see ``--no-cache``.)
``REPRO_CACHE_DIR``
    Cache location; defaults to ``$XDG_CACHE_HOME/repro-vscale`` (or
    ``~/.cache/repro-vscale``).  Setting it implies ``REPRO_CACHE=1``.
``REPRO_CELL_TIMEOUT``
    Per-cell wall-clock timeout in seconds (measured from when the cell
    starts running in a worker, not from submission).  Unset or ``<= 0``
    disables the timeout.
``REPRO_CELL_RETRIES``
    Pool retries before the serial fallback (default 1).
"""

from __future__ import annotations

import concurrent.futures
import multiprocessing
import os
import re
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.parallel.cache import MISS, ResultCache, cell_key
from repro.parallel.telemetry import CellRecord, Telemetry

ENV_JOBS = "REPRO_JOBS"
ENV_CACHE = "REPRO_CACHE"
ENV_CACHE_DIR = "REPRO_CACHE_DIR"
ENV_CELL_TIMEOUT = "REPRO_CELL_TIMEOUT"
ENV_CELL_RETRIES = "REPRO_CELL_RETRIES"

_FALSY = {"0", "off", "false", "no"}
_TRUTHY = {"1", "on", "true", "yes"}

#: How often the pool loop polls futures for completion/timeouts (s).
_POLL_INTERVAL_S = 0.05


def default_cache_dir() -> Path:
    """Resolve the cache directory from the environment."""
    explicit = os.environ.get(ENV_CACHE_DIR)
    if explicit:
        return Path(explicit)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro-vscale"


def jobs_from_env() -> int:
    raw = os.environ.get(ENV_JOBS, "").strip()
    if raw:
        return max(1, int(raw))
    return os.cpu_count() or 1


def cell_timeout_from_env() -> float | None:
    raw = os.environ.get(ENV_CELL_TIMEOUT, "").strip()
    if not raw:
        return None
    value = float(raw)
    return value if value > 0 else None


def cell_retries_from_env() -> int:
    raw = os.environ.get(ENV_CELL_RETRIES, "").strip()
    if raw:
        return max(0, int(raw))
    return 1


def cache_from_env() -> ResultCache | None:
    """Build the cache the environment asks for (None when disabled)."""
    flag = os.environ.get(ENV_CACHE, "").strip().lower()
    if flag in _FALSY:
        return None
    if flag in _TRUTHY or os.environ.get(ENV_CACHE_DIR):
        return ResultCache(default_cache_dir())
    return None


@dataclass(frozen=True)
class CellSpec:
    """One named, independently-runnable cell of an experiment grid.

    ``fn`` must be a module-level callable (picklable by reference) and
    ``kwargs`` must contain everything that determines the result —
    including the seed and work scale — since they form the cache key.
    """

    experiment: str
    name: str
    fn: Callable[..., Any]
    kwargs: Mapping[str, Any] = field(default_factory=dict)

    def key(self) -> str:
        return cell_key(self.experiment, self.fn, dict(self.kwargs))


def _invoke(
    payload: tuple[int, Callable, dict, "tuple[str, dict] | None"],
) -> tuple[int, Any, float, float]:
    """Worker-side cell execution (top-level, hence picklable).

    The optional fourth element is ``(trace_path, trace_meta)``: the cell
    runs under a :func:`repro.tracelog.capture.capture_to` block and its
    binary trace streams to ``trace_path``.  Installed worker-side so the
    per-cell capture works across process boundaries (the fork pool must
    not share one suffix counter).
    """
    index, fn, kwargs, trace = payload
    started = time.time()  # det: allow (telemetry, not simulation state)
    if trace is None:
        value = fn(**kwargs)
    else:
        from repro.tracelog.capture import capture_to

        trace_path, trace_meta = trace
        with capture_to(trace_path, meta=trace_meta):
            value = fn(**kwargs)
    return index, value, started, time.time()  # det: allow (telemetry)


def _pool_context():
    """Prefer fork (cheap, inherits imports); fall back to the default."""
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


@dataclass
class _CellRun:
    """Mutable per-cell scheduling state inside one run_cells call."""

    index: int
    attempts: int = 0
    retries_left: int = 0
    #: Why the pool failed the cell last ("timeout"/"crash"); becomes the
    #: telemetry annotation when the serial fallback rescues it.
    last_failure: str | None = None


class ParallelExecutor:
    """Runs cell grids across a process pool with result memoization."""

    def __init__(
        self,
        jobs: int | None = None,
        cache: ResultCache | None = None,
        telemetry: Telemetry | None = None,
        cell_timeout_s: float | None = None,
        max_retries: int | None = None,
        trace_dir: "str | Path | None" = None,
    ) -> None:
        self.jobs = max(1, jobs if jobs is not None else jobs_from_env())
        self.cache = cache
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        #: When set, every cell streams a binary trace to
        #: ``trace_dir/<experiment>__<name>.rtl``.  Tracing forces real
        #: execution: the result cache is still written but never read,
        #: since a cache hit would produce no trace.
        self.trace_dir = Path(trace_dir) if trace_dir is not None else None
        if self.trace_dir is not None:
            self.trace_dir.mkdir(parents=True, exist_ok=True)
        self.cell_timeout_s = (
            cell_timeout_s if cell_timeout_s is not None else cell_timeout_from_env()
        )
        if self.cell_timeout_s is not None and self.cell_timeout_s <= 0:
            self.cell_timeout_s = None
        self.max_retries = (
            max_retries if max_retries is not None else cell_retries_from_env()
        )

    def run_cells(self, specs: Iterable[CellSpec]) -> list[Any]:
        """Run every cell, in order; cached cells are not re-executed."""
        specs = list(specs)
        results: list[Any] = [None] * len(specs)
        keys: dict[int, str] = {}
        pending: list[int] = []
        for index, spec in enumerate(specs):
            if self.cache is not None:
                key = keys[index] = spec.key()
                if self.trace_dir is None:
                    value = self.cache.get(key)
                    if value is not MISS:
                        now = time.time()  # det: allow (telemetry)
                        results[index] = value
                        self.telemetry.record(
                            CellRecord(spec.experiment, spec.name, now, now, True)
                        )
                        continue
            pending.append(index)

        if pending:
            if self.jobs == 1 or len(pending) == 1:
                for index in pending:
                    outcome = _invoke(self._payload(specs, index))
                    self._complete(specs, keys, results, outcome)
            else:
                self._run_pool(specs, keys, results, pending)

        if self.cache is not None:
            for key in self.cache.drain_corruptions():
                self.telemetry.record_corruption(key)
        return results

    def run_cell(self, spec: CellSpec) -> Any:
        """Convenience wrapper for a single cell."""
        return self.run_cells([spec])[0]

    def _payload(
        self, specs: Sequence[CellSpec], index: int
    ) -> tuple[int, Callable, dict, "tuple[str, dict] | None"]:
        spec = specs[index]
        return (index, spec.fn, dict(spec.kwargs), self._trace_target(spec))

    def _trace_target(self, spec: CellSpec) -> "tuple[str, dict] | None":
        if self.trace_dir is None:
            return None
        stem = re.sub(r"[^A-Za-z0-9._-]+", "_", f"{spec.experiment}__{spec.name}")
        meta = {
            "source": "executor",
            "experiment": spec.experiment,
            "cell": spec.name,
        }
        return str(self.trace_dir / f"{stem}.rtl"), meta

    # ------------------------------------------------------------------
    # Pool scheduling with timeout/crash recovery
    # ------------------------------------------------------------------
    def _run_pool(
        self,
        specs: Sequence[CellSpec],
        keys: Mapping[int, str],
        results: list[Any],
        pending: Sequence[int],
    ) -> None:
        runs = {
            index: _CellRun(index=index, retries_left=self.max_retries)
            for index in pending
        }
        queue: list[int] = list(pending)
        serial: list[_CellRun] = []
        workers = min(self.jobs, len(pending))
        context = _pool_context()

        while queue:
            queue = self._pool_round(
                specs, keys, results, runs, queue, serial, workers, context
            )

        # Last resort: re-execute rescue cases inline, in submission order.
        # Determinism makes this safe; it is slower but cannot crash the
        # grid the way a dying worker can.
        for run in sorted(serial, key=lambda r: r.index):
            run.attempts += 1
            outcome = _invoke(self._payload(specs, run.index))
            self._complete(
                specs, keys, results, outcome,
                attempts=run.attempts, recovered=run.last_failure,
            )

    def _pool_round(
        self,
        specs: Sequence[CellSpec],
        keys: Mapping[int, str],
        results: list[Any],
        runs: dict[int, _CellRun],
        queue: list[int],
        serial: list[_CellRun],
        workers: int,
        context,
    ) -> list[int]:
        """Run one pool generation; returns the indices needing another.

        A generation ends when every submitted future resolves, or early
        when a timeout/crash forces the pool down — surviving cells are
        requeued for the next generation, repeat offenders are handed to
        the serial fallback.
        """
        requeue: list[int] = []
        pool = concurrent.futures.ProcessPoolExecutor(
            max_workers=workers, mp_context=context
        )
        futures: dict[concurrent.futures.Future, int] = {}
        for index in queue:
            runs[index].attempts += 1
            try:
                future = pool.submit(_invoke, self._payload(specs, index))
            except BrokenProcessPool as exc:
                # A worker died under an earlier cell before this one was
                # queued: fail it like a queued cell of the dead pool.
                future = concurrent.futures.Future()
                future.set_exception(exc)
            futures[future] = index
        started_at: dict[concurrent.futures.Future, float] = {}
        outstanding = set(futures)
        try:
            while outstanding:
                done, outstanding = concurrent.futures.wait(
                    outstanding, timeout=_POLL_INTERVAL_S
                )
                now = time.time()  # det: allow (timeout bookkeeping)
                broken: list[int] = []
                for future in done:
                    index = futures[future]
                    try:
                        outcome = future.result()
                    except BrokenProcessPool:
                        # A worker died under this cell (or the pool
                        # collapsed while it was queued).
                        broken.append(index)
                        continue
                    self._complete(
                        specs, keys, results, outcome,
                        attempts=runs[index].attempts,
                    )
                if broken:
                    # Every outstanding future is poisoned too — fail the
                    # rest of the generation over to retry/serial.
                    self._fail_over(
                        runs,
                        broken + [futures[f] for f in outstanding],  # det: allow — results land by index; order is moot
                        "crash", requeue, serial,
                    )
                    return requeue
                if self.cell_timeout_s is None:
                    continue
                for future in outstanding:  # det: allow — order is moot
                    if future not in started_at and future.running():
                        started_at[future] = now
                expired = [
                    future
                    for future in outstanding  # det: allow — order is moot
                    if future in started_at
                    and now - started_at[future] > self.cell_timeout_s
                ]
                if expired:
                    # Running futures cannot be cancelled: take the pool
                    # down and sort survivors from offenders.
                    expired_set = set(expired)
                    for future in outstanding:  # det: allow — order is moot
                        index = futures[future]
                        if future in expired_set:
                            self._fail_over(
                                runs, [index], "timeout", requeue, serial
                            )
                        else:
                            # Innocent bystander: requeue at no cost.
                            requeue.append(index)
                    self._terminate(pool)
                    return requeue
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
        return requeue

    @staticmethod
    def _fail_over(
        runs: dict[int, _CellRun],
        indices: Iterable[int],
        reason: str,
        requeue: list[int],
        serial: list[_CellRun],
    ) -> None:
        for index in indices:
            run = runs[index]
            run.last_failure = reason
            if run.retries_left > 0:
                run.retries_left -= 1
                requeue.append(index)
            else:
                serial.append(run)

    @staticmethod
    def _terminate(pool: concurrent.futures.ProcessPoolExecutor) -> None:
        """Kill worker processes outright so a hung cell cannot block
        shutdown.  (`_processes` is private but stable since 3.7; running
        futures cannot be cancelled any other way.)"""
        processes = getattr(pool, "_processes", None) or {}
        for process in list(processes.values()):
            process.terminate()
        pool.shutdown(wait=False, cancel_futures=True)

    def _complete(
        self,
        specs: Sequence[CellSpec],
        keys: Mapping[int, str],
        results: list[Any],
        outcome: tuple[int, Any, float, float],
        attempts: int = 1,
        recovered: str | None = None,
    ) -> None:
        index, value, started, finished = outcome
        spec = specs[index]
        results[index] = value
        if self.cache is not None:
            self.cache.put(keys[index], value)
        self.telemetry.record(
            CellRecord(
                spec.experiment, spec.name, started, finished, False,
                attempts=attempts, recovered=recovered,
            )
        )


_DEFAULT: ParallelExecutor | None = None


def get_default_executor() -> ParallelExecutor:
    """The process-wide executor used when callers don't pass their own.

    Configured from the environment on first use; its telemetry
    aggregates across every experiment run in the process (the benchmark
    suite prints it at session end).
    """
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = ParallelExecutor(jobs=jobs_from_env(), cache=cache_from_env())
    return _DEFAULT
