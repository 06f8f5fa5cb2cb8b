"""Twin builds: two machines built from one factory are in one state.

The simulator is deterministic, so two scenarios built from the same
factory must agree, at every checkpoint instant, on everything
:func:`repro.recovery.state_dict` observes: the engine queue, RNG stream
positions, scheduler runqueues, domain/vCPU/guest state, the xenstore
tree and the fault injector's position.  The comparison catches state
that a run carries but never reports, such as a counter seeded from
process-global state, which result goldens and same-seed trace
comparisons miss.

Observing must not perturb: a run observed mid-way ends in the same
state as one never observed on the way.
"""

import contextlib
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments.setups import Config, ScenarioBuilder
from repro.faults import generate_plan
from repro.hypervisor.schedulers import available
from repro.recovery import fingerprint, state_dict
from repro.units import MS, SEC
from tests.sim.heap_queue import HeapQueue, heap_engine

INSTANTS = (40 * MS, 120 * MS)


def _factory(scheduler=None, seed=7, plan=None):
    def build():
        return (
            ScenarioBuilder(seed=seed, pcpus=4)
            .with_worker_vm(4)
            .with_config(Config.VSCALE)
            .with_scheduler(scheduler)
            .with_faults(plan)
            .build()
        )

    return build


def _fingerprint(scenario) -> str:
    return fingerprint(state_dict(scenario.machine))


def _assert_twins_agree(build, instants) -> list:
    """Run two builds through ``instants``, comparing them at each;
    returns both.  The second twin is built only after the first has
    run to the first instant, so the twins' objects lie at different
    addresses and an order that follows addresses (iterating a set of
    pCPUs) shows up as a difference."""
    twins = []
    for _ in range(2):
        scenario = build()
        scenario.start()
        scenario.run(instants[0])
        twins.append(scenario)
    for at_ns in instants:
        for scenario in twins:
            scenario.run(at_ns)
        assert _fingerprint(twins[0]) == _fingerprint(twins[1]), (
            f"twin builds differ at t={at_ns}"
        )
    return twins


@pytest.mark.parametrize("queue", ("wheel", "heap"))
@pytest.mark.parametrize("scheduler", available())
def test_twin_builds_agree(scheduler, queue):
    with heap_engine() if queue == "heap" else contextlib.nullcontext():
        scenarios = _assert_twins_agree(_factory(scheduler), INSTANTS)
    for scenario in scenarios:
        assert isinstance(scenario.machine.sim._queue, HeapQueue) == (queue == "heap")


@pytest.mark.parametrize("scheduler", available())
def test_snapshot_is_pure(scheduler):
    """Observing the machine state mid-run must not perturb the run
    (read-only contract: no queue pops, no RNG draws, no timer flushes)."""
    observed, unobserved = _factory(scheduler)(), _factory(scheduler)()
    for scenario in (observed, unobserved):
        scenario.start()
    observed.run(INSTANTS[0])
    state_dict(observed.machine)
    for scenario in (observed, unobserved):
        scenario.run(INSTANTS[1])
    assert _fingerprint(observed) == _fingerprint(unobserved)


@given(
    at_ns=st.integers(min_value=1 * MS, max_value=90 * MS),
    seed=st.integers(min_value=1, max_value=50),
)
@settings(max_examples=10, deadline=None)
def test_twin_builds_agree_at_any_instant_and_seed(at_ns, seed):
    _assert_twins_agree(_factory(seed=seed), (at_ns, at_ns + 60 * MS))


def test_twin_builds_agree_under_crash_hang_outage_plan():
    """The injector's consumed events and RNG positions are state too:
    compare at every scripted fault instant and after the last."""
    plan = generate_plan(
        23, 1 * SEC, daemon_crashes=1, vcpu_hangs=1, balancer_outages=1
    )
    instants = sorted({event.at_ns for event in plan.events}) + [1 * SEC]
    _assert_twins_agree(_factory(seed=5, plan=plan), instants)


def test_seeds_fingerprint_differently():
    """A fingerprint blind to the seed would pass every twin test."""
    a, b = _factory(seed=7)(), _factory(seed=8)()
    for scenario in (a, b):
        scenario.start()
        scenario.run(INSTANTS[0])
    assert _fingerprint(a) != _fingerprint(b)


@pytest.mark.parametrize("scheduler", available())
def test_scheduler_state_dict_shape(scheduler):
    """Every registered scheduler exposes a JSON-able state_dict with the
    keys the machine-state observer relies on."""
    scenario = _factory(scheduler)()
    scenario.start()
    scenario.run(INSTANTS[0])
    state = scenario.machine.scheduler.state_dict()
    assert set(state) >= {"name", "runqueues", "backlog", "extra"}
    assert state["name"] == scenario.machine.scheduler.name
    json.dumps(state)  # must serialize without a custom encoder
