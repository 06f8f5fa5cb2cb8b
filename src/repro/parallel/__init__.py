"""Parallel experiment execution over a process pool.

The grid experiments (Figures 6/7, 9, 10, 11-13, the seed-variance
analysis, and the ablations) decompose into independent, deterministic
cells; this package fans those cells out over a process pool and
reassembles the results in submission order.  See
:mod:`repro.parallel.executor` for the ``REPRO_JOBS`` knob and DESIGN.md
section 7 for the determinism guarantee.
"""

from repro.parallel.executor import (
    ENV_JOBS,
    CellSpec,
    ParallelExecutor,
    get_default_executor,
    jobs_from_env,
)
from repro.parallel.telemetry import CellRecord, Telemetry

__all__ = [
    "ENV_JOBS",
    "CellSpec",
    "ParallelExecutor",
    "get_default_executor",
    "jobs_from_env",
    "CellRecord",
    "Telemetry",
]
