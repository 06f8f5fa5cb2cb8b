"""FaultPlan JSON round-trip: serialize, reload, byte-identical replay.

A chaos schedule must be shippable — written next to a failing run and
replayed elsewhere — so ``FaultPlan.to_json``/``from_json`` must be a
lossless pair for every plan the generator can produce, and malformed
input must fail loudly rather than inject a subtly different schedule.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.faults import (
    SCRIPTED_SITES,
    FaultConfig,
    FaultEvent,
    FaultPlan,
    generate_plan,
)
from repro.units import SEC

_sites = st.sampled_from(SCRIPTED_SITES)
_events = st.builds(
    FaultEvent,
    at_ns=st.integers(min_value=0, max_value=10 * SEC),
    site=_sites,
    duration_ns=st.integers(min_value=0, max_value=SEC),
    magnitude=st.integers(min_value=0, max_value=7).map(float),
)
_configs = st.builds(
    FaultConfig,
    daemon_crash_rate=st.floats(min_value=0.0, max_value=1.0),
    balancer_outage_rate=st.floats(min_value=0.0, max_value=1.0),
    daemon_restart_delay_ns=st.integers(min_value=1, max_value=SEC),
    balancer_outage_periods=st.integers(min_value=1, max_value=10),
)


@given(config=_configs, seed=st.integers(min_value=0, max_value=2**32 - 1),
       events=st.lists(_events, max_size=8))
@settings(max_examples=50, deadline=None)
def test_roundtrip_is_lossless(config, seed, events):
    plan = FaultPlan(config, seed=seed, events=sorted(events, key=lambda e: e.at_ns))
    restored = FaultPlan.from_json(plan.to_json())
    assert restored.config == plan.config
    assert restored.seed == plan.seed
    assert restored.events == plan.events
    # And the round-trip is a fixed point: same JSON bytes again.
    assert restored.to_json() == plan.to_json()


def test_generated_plan_roundtrips():
    plan = generate_plan(
        17, 4 * SEC, daemon_crashes=2, vcpu_hangs=2, balancer_outages=1
    )
    restored = FaultPlan.from_json(plan.to_json())
    assert restored == plan


def test_json_shape_is_stable():
    plan = generate_plan(5, 2 * SEC, daemon_crashes=1)
    payload = json.loads(plan.to_json())
    assert set(payload) == {"config", "seed", "events"}
    assert payload["seed"] == 5
    assert payload["events"][0]["site"] == "daemon_crash"


@pytest.mark.parametrize(
    "text",
    [
        "not json",
        "[1, 2, 3]",
        json.dumps({"seed": 1}),
        json.dumps({"config": {"no_such_rate": 1.0}, "seed": 1, "events": []}),
        json.dumps({"config": {}, "seed": 1, "events": [{"site": "daemon_crash"}]}),
        json.dumps({"config": {}, "seed": 1, "events": ["nope"]}),
    ],
)
def test_malformed_json_raises(text):
    with pytest.raises(ValueError):
        FaultPlan.from_json(text)


def test_scaled_keeps_crash_sites_quiet():
    """`scaled()` drives the legacy rate matrix only: crash-stop sites
    stay scripted-only so existing fault goldens cannot drift."""
    config = FaultConfig.scaled(0.1)
    assert config.daemon_crash_rate == 0.0
    assert config.balancer_outage_rate == 0.0
