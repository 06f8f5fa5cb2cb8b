"""Deterministic checkpoint/restore across the scheduler zoo x queues.

The central contract of :mod:`repro.recovery.checkpoint`:

* snapshots are *pure* — taking one leaves the run bit-identical to
  never snapshotting;
* restore-then-run is bit-identical to straight-through, for every
  registered scheduler, on the timer wheel and on the heap oracle
  (:mod:`tests.sim.heap_queue`);
* the state format is name-keyed, so fingerprints compare across
  independently built machines (the restore path depends on this).
"""

import contextlib
import json

import pytest

from repro.experiments.setups import Config, ScenarioBuilder
from repro.hypervisor.config import HostConfig
from repro.hypervisor.machine import Machine
from repro.hypervisor.schedulers import available
from repro.recovery import RestoreMismatch, capture, fingerprint, restore, state_dict
from repro.units import MS
from tests.sim.heap_queue import HeapQueue, heap_engine

ALL_SCHEDULERS = available()
QUEUES = ("wheel", "heap")

SNAP_NS = 40 * MS
END_NS = 120 * MS


def _builder(scheduler, seed=7):
    return (
        ScenarioBuilder(seed=seed, pcpus=4)
        .with_worker_vm(4)
        .with_config(Config.VSCALE)
        .with_scheduler(scheduler)
    )


@pytest.mark.parametrize("queue", QUEUES)
@pytest.mark.parametrize("scheduler", ALL_SCHEDULERS)
def test_restore_then_run_is_bit_identical(scheduler, queue):
    build = lambda: _builder(scheduler).build()
    with heap_engine() if queue == "heap" else contextlib.nullcontext():
        straight = build()
        straight.start()
        straight.run(SNAP_NS)
        checkpoint = straight.machine.snapshot()

        restored = restore(checkpoint, build)

        straight.run(END_NS)
        restored.run(END_NS)
    for scenario in (straight, restored):
        assert isinstance(scenario.machine.sim._queue, HeapQueue) == (queue == "heap")
    assert fingerprint(state_dict(straight.machine)) == fingerprint(
        state_dict(restored.machine)
    )


@pytest.mark.parametrize("scheduler", ALL_SCHEDULERS)
def test_snapshot_is_pure(scheduler):
    """A mid-run snapshot must not perturb the run (read-only contract:
    no queue pops, no RNG draws, no timer flushes)."""
    with_snapshot = _builder(scheduler).build()
    with_snapshot.start()
    with_snapshot.run(SNAP_NS)
    with_snapshot.machine.snapshot()
    with_snapshot.run(END_NS)

    without = _builder(scheduler).build()
    without.start()
    without.run(END_NS)
    assert fingerprint(state_dict(with_snapshot.machine)) == fingerprint(
        state_dict(without.machine)
    )


@pytest.mark.parametrize("scheduler", ALL_SCHEDULERS)
def test_scheduler_state_dict_shape(scheduler):
    """Every registered scheduler exposes a JSON-able state_dict with the
    conformance keys the checkpoint format relies on."""
    scenario = _builder(scheduler).build()
    scenario.start()
    scenario.run(SNAP_NS)
    state = scenario.machine.scheduler.state_dict()
    assert set(state) >= {"name", "runqueues", "backlog", "extra"}
    assert state["name"] == scenario.machine.scheduler.name
    json.dumps(state)  # must serialize without a custom encoder


def test_checkpoint_json_roundtrip_and_fingerprint_stability():
    scenario = _builder(None).build()
    scenario.start()
    scenario.run(SNAP_NS)
    checkpoint = capture(scenario.machine)
    payload = json.loads(checkpoint.dumps())
    assert payload["at_ns"] == SNAP_NS
    assert payload["fingerprint"] == checkpoint.fingerprint
    # Fingerprint is a function of the state alone.
    assert fingerprint(payload["state"]) == checkpoint.fingerprint


def test_restore_rejects_wrong_factory():
    """Replaying the wrong scenario must raise, naming differing keys."""
    scenario = _builder(None, seed=7).build()
    scenario.start()
    scenario.run(SNAP_NS)
    checkpoint = scenario.machine.snapshot()
    with pytest.raises(RestoreMismatch):
        restore(checkpoint, lambda: _builder(None, seed=8).build())


def test_machine_snapshot_facade():
    """Machine.snapshot/restore delegate to the recovery layer."""
    build = lambda: _builder(None).build()
    scenario = build()
    scenario.start()
    scenario.run(SNAP_NS)
    checkpoint = scenario.machine.snapshot()
    assert checkpoint.at_ns == SNAP_NS
    restored = Machine.restore(checkpoint, build)
    assert restored.machine.sim.now == SNAP_NS
