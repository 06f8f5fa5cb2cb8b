"""Fault-injection determinism: same seed + same plan => same results.

The fault injector draws from named streams derived from the *plan*
seed, so an injected run is just as deterministic as a clean one: the
same (workload seed, fault seed, rate) triple must reproduce the same
faults, the same degradation counters, and the same report — serially
or pooled.  This is what makes the fault matrix's goldens meaningful.
"""

from repro.experiments import faults, results
from repro.parallel import ParallelExecutor

KWARGS = dict(app_name="cg", mechanism="vscale", rate=0.1, seed=3, work_scale=0.05)


def test_same_seed_and_plan_reproduce_bit_for_bit():
    first = faults.run_matrix_cell(**KWARGS)
    second = faults.run_matrix_cell(**KWARGS)
    assert first == second
    assert results.dumps(first) == results.dumps(second)
    # The run actually injected faults — this is not vacuous.
    assert sum(first.injected.values()) > 0


def test_fault_seed_changes_the_run():
    base = faults.run_matrix_cell(**KWARGS)
    other = faults.run_matrix_cell(**KWARGS, fault_seed=faults.FAULT_SEED + 1)
    assert base.injected != other.injected or base.duration_ns != other.duration_ns


def test_pool_matches_serial_for_fault_cells():
    grid = dict(
        apps=("cg",), mechanisms=("vscale", "hotplug"), rates=(0.0, 0.1),
        seed=3, work_scale=0.05,
    )
    serial = faults.run(**grid, executor=ParallelExecutor(jobs=1))
    pooled = faults.run(**grid, executor=ParallelExecutor(jobs=2))
    assert serial.cells == pooled.cells
    assert serial.render() == pooled.render()


def test_rate_zero_cell_matches_undisturbed_baseline():
    """A zero-rate plan must not alter the simulation at all: the
    injector is never installed, and the hotplug cell equals a run with
    no fault machinery anywhere near it."""
    cell = faults.run_matrix_cell("cg", "hotplug", 0.0, seed=3, work_scale=0.05)
    assert cell.injected == {}
    again = faults.run_matrix_cell("cg", "hotplug", 0.0, seed=3, work_scale=0.05)
    assert cell == again
