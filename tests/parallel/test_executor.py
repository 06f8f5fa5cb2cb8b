"""Tests for the process-pool experiment executor."""

from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.parallel import CellSpec, ParallelExecutor, Telemetry, get_default_executor
from tests.parallel import cellfns


def specs_for(values):
    return [CellSpec("unit", f"cell-{v}", cellfns.square, dict(x=v)) for v in values]


def test_inline_execution_preserves_order():
    executor = ParallelExecutor(jobs=1)
    assert executor.run_cells(specs_for([3, 1, 2])) == [9, 1, 4]


def test_pool_execution_preserves_order():
    executor = ParallelExecutor(jobs=3)
    values = list(range(10))
    assert executor.run_cells(specs_for(values)) == [v * v for v in values]
    assert [r.cell for r in executor.telemetry.records] == [
        f"cell-{v}" for v in values
    ]


def test_pool_uses_worker_processes():
    import os

    executor = ParallelExecutor(jobs=2)
    specs = [
        CellSpec("unit", f"pid-{v}", cellfns.pid_tag, dict(x=v)) for v in range(4)
    ]
    outcomes = executor.run_cells(specs)
    assert [x for x, _ in outcomes] == list(range(4))
    # At least one cell ran outside the parent process.
    assert any(pid != os.getpid() for _, pid in outcomes)


def test_single_pending_cell_runs_inline():
    import os

    executor = ParallelExecutor(jobs=8)
    [(x, pid)] = executor.run_cells(
        [CellSpec("unit", "solo", cellfns.pid_tag, dict(x=7))]
    )
    assert (x, pid) == (7, os.getpid())


def test_cell_exceptions_propagate():
    executor = ParallelExecutor(jobs=1)
    with pytest.raises(RuntimeError, match="cell 5 failed"):
        executor.run_cells([CellSpec("unit", "boom", cellfns.boom, dict(x=5))])


def test_pool_mode_exceptions_are_not_swallowed():
    executor = ParallelExecutor(jobs=2)
    # Either cell's exception may surface first; both are real bugs.
    with pytest.raises(RuntimeError, match=r"cell [56] failed"):
        executor.run_cells(
            [CellSpec("unit", f"boom-{v}", cellfns.boom, dict(x=v)) for v in (5, 6)]
        )


def test_lost_worker_fails_the_run():
    # A deterministic cell that kills its worker would kill it again on a
    # retry, so the run fails instead of rerunning the cell elsewhere.
    executor = ParallelExecutor(jobs=2)
    specs = [CellSpec("unit", "crash", cellfns.crash_in_worker, dict(x=3))]
    specs += specs_for([4])
    with pytest.raises(BrokenProcessPool):
        executor.run_cells(specs)


def test_telemetry_records_timestamps():
    telemetry = Telemetry()
    executor = ParallelExecutor(jobs=1, telemetry=telemetry)
    executor.run_cells(specs_for([1, 2]))
    assert [r.cell for r in telemetry.records] == ["cell-1", "cell-2"]
    for record in telemetry.records:
        assert record.finished >= record.started
    assert "cells=2 " in telemetry.summary()
    payload = telemetry.to_dict()
    assert [c["cell"] for c in payload["cells"]] == ["cell-1", "cell-2"]


def test_jobs_floor_is_one():
    assert ParallelExecutor(jobs=0).jobs == 1
    assert ParallelExecutor(jobs=-3).jobs == 1


def test_default_executor_is_shared():
    assert get_default_executor() is get_default_executor()
