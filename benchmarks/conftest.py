"""Shared configuration for the benchmark suite.

Every benchmark regenerates one table or figure of the paper: it prints
the same rows/series the paper reports and asserts the qualitative shape
(who wins, roughly by how much, where crossovers fall).  Every benchmark
runs its experiment at full scale: the shapes are claims about the paper's
workloads, and several do not hold on shrunken runs.

The experiment modules fan their grids out through ``repro.parallel``;
the suite inherits that, so:

``REPRO_JOBS``
    worker processes per grid (default: CPU count).  Results are
    bit-for-bit identical for any worker count (the simulator is seeded
    and deterministic; ``tests/experiments/test_determinism.py`` enforces
    it), so the assertions are unaffected.

The session prints the executor's telemetry summary (cells run,
executed seconds) at the end of the run.
"""

from __future__ import annotations

import pytest


@pytest.fixture
def bench_once(benchmark):
    """Run the experiment exactly once under pytest-benchmark timing."""

    def runner(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)

    return runner


def pytest_sessionfinish(session, exitstatus):
    """Report the shared executor's cell count and timing for the run."""
    from repro.parallel import get_default_executor

    telemetry = get_default_executor().telemetry
    if telemetry.records:
        reporter = session.config.pluginmanager.get_plugin("terminalreporter")
        line = telemetry.summary()
        if reporter is not None:
            reporter.write_line(line)
        else:  # pragma: no cover - fallback when run without a terminal
            print(line)
