"""Tests for the structured tracer."""

import pytest

from repro.sim.trace import NULL_TRACER, TraceRecord, Tracer


def test_disabled_category_is_noop():
    tracer = Tracer(["sched"])
    tracer.emit(10, "guest", "migrate", "t1")
    assert tracer.records == []
    tracer.emit(10, "sched", "switch", "v0")
    assert len(tracer.records) == 1


def test_unknown_category_rejected():
    with pytest.raises(ValueError):
        Tracer(["nonsense"])
    tracer = Tracer()
    with pytest.raises(ValueError):
        tracer.enable("nonsense")


def test_enable_disable_roundtrip():
    tracer = Tracer()
    assert not tracer.enabled_for("irq")
    tracer.enable("irq")
    assert tracer.enabled_for("irq")
    tracer.disable("irq")
    assert not tracer.enabled_for("irq")


def test_capacity_bounds_and_counts_drops():
    tracer = Tracer(["sched"], capacity=3)
    for i in range(5):
        tracer.emit(i, "sched", "tick", "v0")
    assert len(tracer.records) == 3
    assert tracer.dropped == 2


def test_select_filters():
    tracer = Tracer(["sched", "irq"])
    tracer.emit(1, "sched", "switch", "v0")
    tracer.emit(2, "irq", "post", "v1", kind="resched")
    tracer.emit(3, "sched", "switch", "v1")
    assert tracer.count(category="sched") == 2
    assert tracer.count(event="post") == 1
    assert tracer.count(subject="v1") == 2
    assert tracer.count(since_ns=2) == 2


def test_record_renders_readably():
    record = TraceRecord(2_500_000, "sched", "switch", "v0", {"to": "v1"})
    text = str(record)
    assert "sched/switch" in text
    assert "to=v1" in text


def test_null_tracer_swallows_everything():
    NULL_TRACER.emit(1, "sched", "switch", "x")
    assert NULL_TRACER.records == []


def test_clear_resets():
    tracer = Tracer(["sched"], capacity=1)
    tracer.emit(1, "sched", "a", "x")
    tracer.emit(2, "sched", "b", "x")
    assert tracer.dropped == 1
    tracer.clear()
    assert tracer.records == [] and tracer.dropped == 0
