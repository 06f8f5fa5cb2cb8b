"""Chaos grid tests: plan generation determinism, grid plumbing and the
crash cell's recovery bounds."""

import pytest

from repro.experiments import chaos
from repro.faults import generate_plan
from repro.units import SEC


def test_generate_plan_is_deterministic():
    a = generate_plan(17, 4 * SEC, daemon_crashes=2, vcpu_hangs=2, balancer_outages=1)
    b = generate_plan(17, 4 * SEC, daemon_crashes=2, vcpu_hangs=2, balancer_outages=1)
    assert a == b
    c = generate_plan(18, 4 * SEC, daemon_crashes=2, vcpu_hangs=2, balancer_outages=1)
    assert c != a


def test_generate_plan_shapes():
    plan = generate_plan(7, 4 * SEC, daemon_crashes=3, vcpu_hangs=2, vcpus=4)
    sites = [e.site for e in plan.events]
    assert sites.count("daemon_crash") == 3
    assert sites.count("vcpu_hang") == 2
    # Instants land in the middle 80% of the window, sorted per plan.
    for event in plan.events:
        assert 4 * SEC // 10 <= event.at_ns <= 4 * SEC - 4 * SEC // 10
    for event in plan.events:
        if event.site == "vcpu_hang":
            assert 1 <= int(event.magnitude) <= 3  # never the master


def test_generate_plan_validates():
    with pytest.raises(ValueError):
        generate_plan(1, 0)
    with pytest.raises(ValueError):
        generate_plan(1, SEC, vcpu_hangs=1, vcpus=1)


def test_build_plan_covers_profiles():
    for profile in chaos.PROFILES:
        plan = chaos._build_plan(profile, 17, 1.0)
        if profile == "none":
            assert plan is None
        else:
            assert plan is not None and plan.active


def test_chaos_cell_smoke():
    """One tiny crash cell end to end: every crash is restarted, the
    daemon reconverges within 4 periods, and the cell is deterministic
    across runs."""
    cell = chaos.run_chaos_cell("crash", work_scale=0.05)
    assert cell.profile == "crash"
    assert cell.recovery["daemon_crashes"] >= 1
    assert cell.recovery["daemon_restarts"] == cell.recovery["daemon_crashes"]
    assert cell.recovery["recoveries"] >= 1
    assert cell.recovery["recovery_epochs_max"] <= 4

    again = chaos.run_chaos_cell("crash", work_scale=0.05)
    assert again == cell  # bit-identical


def test_chaos_cell_rejects_unknown_profile():
    with pytest.raises(ValueError):
        chaos.run_chaos_cell("earthquake", work_scale=0.05)
