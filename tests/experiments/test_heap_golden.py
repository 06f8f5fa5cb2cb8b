"""Golden cells on the binary-heap oracle queue.

The golden tests (:mod:`tests.experiments.test_goldens`) run on the
simulator's timer wheel.  These re-run golden cells with every
``Simulator`` built on the reference heap (:mod:`tests.sim.heap_queue`)
and require the *same* golden bytes: the queue must be a pure
performance choice, invisible in every number an experiment produces.
"""

import json

import pytest

from repro.experiments import results
from tests.experiments.test_goldens import CASES, GOLDENS
from tests.sim.heap_queue import heap_engine


@pytest.mark.parametrize("name", ["fig6_cell_cg_vscale", "table1"])
def test_heap_engine_matches_golden(name):
    with heap_engine() as queues:
        computed = json.loads(results.dumps(CASES[name](), experiment=name))
    assert queues, "no Simulator was built on the heap queue"
    path = GOLDENS / f"{name}.json"
    assert path.exists(), f"missing golden {path}"
    assert computed == json.loads(path.read_text())
