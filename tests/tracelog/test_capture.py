"""Capture wiring: env hook, suffixing, limits, nesting, streaming."""

import pytest

from repro.experiments.npb_common import run_cell
from repro.experiments.setups import Config
from repro.guest.kernel import GuestKernel
from repro.hypervisor.config import HostConfig
from repro.hypervisor.machine import Machine
from repro.parallel.executor import CellSpec, ParallelExecutor
from repro.sim.trace import Tracer
from repro.tracelog import capture as capture_mod
from repro.tracelog.capture import capture_to
from repro.tracelog.codec import TraceWriter, load
from repro.units import MS
from repro.workloads.openmp import SPINCOUNT_ACTIVE
from tests.conftest import busy


@pytest.fixture(autouse=True)
def _reset_env_capture():
    """Env captures register a process-global; never leak one across tests."""
    yield
    capture_mod._close_env_capture()


def run_machine(seed=1):
    machine = Machine(HostConfig(pcpus=2), seed=seed)
    domain = machine.create_domain("vm", vcpus=2)
    kernel = GuestKernel(domain)
    kernel.spawn(busy(20 * MS), "w")
    machine.start()
    machine.run(until=50 * MS)
    return machine


def test_env_capture_suffixes_per_machine(tmp_path, monkeypatch):
    base = tmp_path / "t.rtl"
    monkeypatch.setenv("REPRO_TRACE", str(base))
    for _ in range(3):
        run_machine()
    capture_mod._close_env_capture()
    for path in (base, tmp_path / "t.rtl.1", tmp_path / "t.rtl.2"):
        _, records = load(str(path))
        assert records, f"{path} is empty"


def test_env_capture_machine_limit(tmp_path, monkeypatch):
    base = tmp_path / "t.rtl"
    monkeypatch.setenv("REPRO_TRACE", str(base))
    monkeypatch.setattr(capture_mod, "MACHINE_LIMIT", 2)
    for _ in range(4):
        run_machine()
    capture_mod._close_env_capture()
    assert base.exists()
    assert (tmp_path / "t.rtl.1").exists()
    assert not (tmp_path / "t.rtl.2").exists()


def test_no_env_no_capture(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    run_machine()
    assert capture_mod._active is None
    assert list(tmp_path.iterdir()) == []


def test_nested_capture_rejected(tmp_path):
    with capture_to(str(tmp_path / "a.rtl")):
        with pytest.raises(RuntimeError, match="already active"):
            with capture_to(str(tmp_path / "b.rtl")):
                pass


def test_capture_to_category_filter(tmp_path):
    path = tmp_path / "t.rtl"
    with capture_to(str(path), categories={"irq"}):
        run_machine()
    _, records = load(str(path))
    assert all(r.category == "irq" for r in records)


def test_streaming_adopts_tracer_buffer(tmp_path):
    """stream_into: the writer's pending batch IS the tracer's records,
    and drained records leave only the undrained tail in memory."""
    path = tmp_path / "t.rtl"
    writer = TraceWriter(str(path))
    tracer = Tracer({"sched"})
    writer.stream_into(tracer)
    assert tracer.records is writer._pending
    for i in range(10):
        tracer.emit(i, "sched", "run", "v0")
    assert len(tracer.records) == 10  # below batch threshold: undrained
    writer.close()
    assert tracer.records == []  # close() drained the shared buffer
    _, records = load(str(path))
    assert len(records) == 10


def test_attach_stream_rejects_bad_batch():
    tracer = Tracer({"sched"})
    with pytest.raises(ValueError, match="batch must be positive"):
        tracer.attach_stream([], lambda: None, 0)


def test_attach_stream_drains_at_batch_threshold():
    drained = []
    pending: list = []
    tracer = Tracer({"sched"})
    tracer.attach_stream(pending, lambda: drained.append(len(pending)), 4)
    for i in range(4):
        tracer.emit(i, "sched", "run", "v0")
    assert drained == [4]  # fired exactly once, at the threshold


def _fig6_specs() -> list[CellSpec]:
    kwargs = {
        "app_name": "cg",
        "vcpus": 2,
        "spincount": SPINCOUNT_ACTIVE,
        "config": Config.VSCALE,
        "work_scale": 0.02,
    }
    return [
        CellSpec("fig6", f"seed{seed}", run_cell, {**kwargs, "seed": seed})
        for seed in (3, 4)
    ]


def test_env_capture_in_a_pooled_run(tmp_path, monkeypatch):
    """REPRO_TRACE with two jobs: the cells run in this process, so every
    trace file is numbered once and closed, and the results are those of
    an untraced pooled run."""
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    untraced = ParallelExecutor(jobs=2).run_cells(_fig6_specs())
    monkeypatch.setenv("REPRO_TRACE", str(tmp_path / "t.rtl"))
    traced = ParallelExecutor(jobs=2).run_cells(_fig6_specs())
    capture_mod._close_env_capture()
    assert traced == untraced
    produced = sorted(tmp_path.iterdir())
    assert [p.name for p in produced] == ["t.rtl", "t.rtl.1"]
    for path in produced:
        _, records = load(str(path))
        assert records, f"{path} is empty"
