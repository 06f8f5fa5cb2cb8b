"""Golden work counts of small end-to-end benchmark cells.

Each case runs one small cell under the end-to-end benchmark's span
tracer (``benchmarks/e2e/e2e_spans.py``) and compares what the simulator
did, as counts, against ``goldens/work_counts.json``: every non-zero
per-span count (events fired per callback, calls per entry point) plus
the events scheduled and cancelled, the event-queue peak, the vCPUs
accounted in batches and the successful freeze/unfreeze
reconfigurations, each keyed ``<layer> <kind> <name>``.  Every work
count the benchmark reports per layer (``sim.dispatched``,
``guest.tick_events``, ``<layer>.events``, ``core.recomputes``, ...) is
one of these or a sum of them.

The simulator is deterministic, so the counts repeat exactly on any host
and Python: a change that alters how much work a cell does fails here
even when every result golden still matches (for instance, ticks that
stop being elided).  How long each event takes is the end-to-end
benchmark's job, not this test's.

The counts depend on the scheduler, so this module lives in
``tests/experiments``, which the ``REPRO_SCHEDULER`` matrix does not run.

Regenerating the golden (after a change meant to alter the work done)::

    REPRO_UPDATE_GOLDENS=1 python -m pytest \\
        tests/experiments/test_work_counts.py -q

then review the JSON diff and say in the change's notes why it moved.
"""

import functools
import json
import sys
from pathlib import Path

import pytest

from tests.experiments.test_goldens import CASES, GOLDENS, UPDATE

sys.path.append(str(Path(__file__).resolve().parents[2] / "benchmarks" / "e2e"))

from e2e_cells import execute, make_cell  # noqa: E402
from e2e_spans import SpanTracer, tracing  # noqa: E402

GOLDEN = GOLDENS / "work_counts.json"
#: The tracer's counters beyond span counts, with the layer each belongs to.
COUNTERS = {
    "scheduled": "sim",
    "cancelled": "sim",
    "queue_peak": "sim",
    "batch_vcpus": "schedulers",
    "reconfigs": "core",
}


def _e2e(workload, **kwargs):
    return functools.partial(execute, make_cell(workload, **kwargs))


RUNS = {
    "npb_fig6_cg_vanilla": _e2e("npb_fig6", app="cg", config="VANILLA", seed=3, work_scale=0.05),
    "npb_fig6_cg_vscale": _e2e("npb_fig6", app="cg", config="VSCALE", seed=3, work_scale=0.05),
    "apache_rps_6000_vanilla": _e2e(
        "apache_rps", rate=6000, config="VANILLA", seed=0, duration_ns=200_000_000
    ),
    "apache_rps_6000_vscale": _e2e(
        "apache_rps", rate=6000, config="VSCALE", seed=0, duration_ns=200_000_000
    ),
    "host_50vm": _e2e("host_50vm", seed=0, duration_ns=10**9),
    "faults_cell_cg_vscale": CASES["faults_cell_cg_vscale"],
}


def work_counts(run) -> dict:
    """``run()``'s counters and non-zero span counts, keyed ``layer kind name``."""
    tracer = SpanTracer()
    with tracing(tracer):
        tracer.root(run)
    counts = {f"{layer} counter {name}": getattr(tracer, name) for name, layer in COUNTERS.items()}
    for name, layer, kind, count in zip(tracer.names, tracer.layers, tracer.kinds, tracer.count):
        if count:
            key = f"{layer} {kind} {name}"
            counts[key] = counts.get(key, 0) + count
    return counts


@pytest.mark.parametrize("name", sorted(RUNS))
def test_work_counts(name):
    computed = work_counts(RUNS[name])
    goldens = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    if UPDATE:
        goldens[name] = computed
        GOLDEN.write_text(json.dumps(goldens, indent=2, sort_keys=True) + "\n")
        pytest.skip(f"regenerated {name} in {GOLDEN.name}")
    assert name in goldens, f"no {name} in {GOLDEN}; regenerate with REPRO_UPDATE_GOLDENS=1"
    assert computed == goldens[name], (
        f"{name} did different work; if the change is intentional, "
        "regenerate with REPRO_UPDATE_GOLDENS=1 and say why in the change's notes"
    )
