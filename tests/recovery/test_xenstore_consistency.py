"""XenStore consistency under interleaved restart/balancer traffic.

The daemon's durable state shares the machine-wide store with the
balancer's availability keys.  The torn-state hazards and why they
cannot happen:

* the daemon publishes its whole hysteresis snapshot as ONE JSON value
  on ONE key, and single-key commits are atomic — a reader sees the old
  complete snapshot or the new complete snapshot, never a blend;
* a crash between ``write`` and its delayed ``_commit`` leaves the
  previous complete snapshot in place (the restart reads old-but-whole
  state);
* interleaved balancer availability writes land on disjoint keys and
  cannot shear the daemon's snapshot.
"""

import json

from repro.core.daemon import DaemonConfig
from repro.experiments.setups import Config, ScenarioBuilder
from repro.faults import generate_plan
from repro.hypervisor.xenstore import XenStoreError, availability_path
from repro.units import MS, SEC


def _scenario(plan=None, seed=13):
    builder = (
        ScenarioBuilder(seed=seed, pcpus=4)
        .with_worker_vm(4)
        .with_config(Config.VSCALE)
        .with_faults(plan)
    )
    builder.daemon_config = DaemonConfig.crash_hardened()
    return builder.build()


def _poll_states(scenario, until_ns, step_ns=1 * MS):
    """Read the daemon-state key at every step; return the decoded dicts."""
    store = scenario.machine.xenstore
    path = f"/vscale/{scenario.worker_domain.name}/daemon/state"
    seen = []
    while scenario.machine.sim.now < until_ns:
        scenario.run(scenario.machine.sim.now + step_ns)
        try:
            raw = store.read(path)
        except XenStoreError:
            continue
        seen.append(json.loads(raw))
    return seen


def test_daemon_state_is_never_torn():
    """Every observable value of the state key is a complete snapshot
    with exactly the three expected fields and coherent types — sampled
    every millisecond across a run with crashes and scaling activity."""
    plan = generate_plan(13, 1 * SEC, daemon_crashes=2)
    scenario = _scenario(plan)
    scenario.start()
    snapshots = _poll_states(scenario, 1 * SEC)
    assert snapshots, "daemon never published durable state"
    for snap in snapshots:
        assert set(snap) == {"direction", "last_change_ns", "shrink_votes"}
        assert snap["direction"] in (-1, 0, 1)
        assert isinstance(snap["last_change_ns"], int)
        assert isinstance(snap["shrink_votes"], int)
        assert snap["shrink_votes"] >= 0


def test_interleaved_balancer_writes_do_not_corrupt_daemon_state():
    """Hammer availability keys (the balancer's traffic) on the shared
    store while the daemon publishes; both namespaces stay intact."""
    plan = generate_plan(13, 1 * SEC, daemon_crashes=1)
    scenario = _scenario(plan)
    store = scenario.machine.xenstore
    name = scenario.worker_domain.name
    scenario.start()

    # Interleave writes at a cadence that brackets the daemon's commits.
    for tick in range(50):
        scenario.run((tick + 1) * 17 * MS)
        store.write(availability_path(name, 1 + tick % 3), "online")

    path = f"/vscale/{name}/daemon/state"
    snap = json.loads(store.read(path))
    assert set(snap) == {"direction", "last_change_ns", "shrink_votes"}
    for index in (1, 2, 3):
        assert store.read(availability_path(name, index)) == "online"


def test_crash_before_commit_reads_old_complete_state():
    """A write in flight at crash time is invisible to the restart: the
    120 us commit latency means the restart's read returns the previous
    complete snapshot, not a half-applied one."""
    scenario = _scenario()
    store = scenario.machine.xenstore
    path = "/consistency/probe"
    scenario.start()
    scenario.run(10 * MS)
    store.write(path, json.dumps({"gen": 1, "complete": True}, sort_keys=True))
    scenario.run(20 * MS)  # gen 1 committed
    store.write(path, json.dumps({"gen": 2, "complete": True}, sort_keys=True))
    # "Crash" immediately: a reader at t+0 (before the 120 us commit)
    # must see gen 1, whole.
    observed = json.loads(store.read(path))
    assert observed == {"gen": 1, "complete": True}
    scenario.run(21 * MS)  # past the commit latency
    observed = json.loads(store.read(path))
    assert observed == {"gen": 2, "complete": True}


def test_restored_state_matches_last_published():
    """End to end: what the post-crash daemon restored equals what the
    pre-crash daemon last committed (no invented or partial values)."""
    plan = generate_plan(13, 2 * SEC, daemon_crashes=1)
    scenario = _scenario(plan)
    scenario.start()
    scenario.run(2 * SEC)
    recovery = scenario.machine.faults.recovery
    assert recovery.daemon_crashes == 1
    assert recovery.state_restores == 1
    # The published key tracks the live daemon again after recovery.
    daemon = scenario.daemon
    snap = json.loads(
        scenario.machine.xenstore.read(
            f"/vscale/{scenario.worker_domain.name}/daemon/state"
        )
    )
    assert snap["direction"] == daemon._last_direction
    assert snap["last_change_ns"] == daemon._last_change_ns
