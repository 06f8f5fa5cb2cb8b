"""Per-event trace sites: complete when tracing is on, silent when off.

The hot emit sites (vCPU context switches, interrupt post and delivery,
guest thread migrations) test their category before building a record's
arguments.  Two checks keep those guards honest:

* with every category enabled, small traced cells write the per-event
  record counts pinned in ``goldens/trace_counts.json``, so a guard that
  drops records fails;
* with tracing off, a 50-VM host cell and an Apache cell make no
  ``Tracer.emit`` call from those sites at all, so a site that builds its
  record unguarded fails.

Regenerating the golden (after a change meant to alter what is traced)::

    REPRO_UPDATE_GOLDENS=1 python -m pytest \\
        tests/tracelog/test_emit_guards.py -q
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path

import pytest

from repro.experiments import decentralization, fig14
from repro.experiments.setups import Config
from repro.sim.trace import Tracer
from repro.tracelog import codec
from repro.tracelog.capture import capture_to
from repro.units import MS
from tests.experiments.test_goldens import GOLDENS, UPDATE

GOLDEN = GOLDENS / "trace_counts.json"

CELLS = {
    "apache_rps_6000_vscale": lambda: fig14.run_point(
        Config.VSCALE, 6000, duration_ns=100 * MS, seed=0
    ),
    "host_8vm": lambda: decentralization.run(
        vms=8, pcpus=4, vcpus_per_vm=2, duration_ns=200 * MS, seed=0
    ),
}

#: The guarded sites, as (module, function) of the ``Tracer.emit`` caller.
GUARDED = {
    ("repro.hypervisor.machine", "vcpu_context_entered"),
    ("repro.hypervisor.machine", "vcpu_context_left"),
    ("repro.hypervisor.machine", "post_irq"),
    ("repro.hypervisor.machine", "_account_delivery"),
    ("repro.guest.kernel", "_migrate"),
    ("repro.guest.kernel", "_finish_freeze_migration"),
}


def _record_counts(cell, tmp_path: Path) -> dict[str, int]:
    path = tmp_path / "cell.rtl"
    with capture_to(str(path), categories=Tracer.KNOWN_CATEGORIES) as capture:
        cell()
    assert len(capture.writers) == 1
    _, records = codec.load(str(path))
    counts = Counter(f"{r.category}/{r.event}" for r in records)
    return dict(sorted(counts.items()))


@pytest.mark.parametrize("name", sorted(CELLS))
def test_traced_cell_records_every_event(name, tmp_path):
    computed = _record_counts(CELLS[name], tmp_path)
    goldens = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    if UPDATE:
        goldens[name] = computed
        GOLDEN.write_text(json.dumps(goldens, indent=2, sort_keys=True) + "\n")
        pytest.skip(f"regenerated {name} in {GOLDEN.name}")
    assert name in goldens, f"no {name} in {GOLDEN}; regenerate with REPRO_UPDATE_GOLDENS=1"
    assert computed == goldens[name]


@pytest.mark.parametrize("category", ["guest", "irq", "sched"])
def test_each_guarded_category_alone_records_the_same(category, tmp_path):
    """A guard that tests the wrong category still records when every
    category is on; with only its own category on, it would not."""
    name = "apache_rps_6000_vscale"
    path = tmp_path / "cell.rtl"
    with capture_to(str(path), categories={category}):
        CELLS[name]()
    _, records = codec.load(str(path))
    counts = Counter(f"{r.category}/{r.event}" for r in records)
    golden = json.loads(GOLDEN.read_text())[name]
    assert dict(counts) == {k: v for k, v in golden.items() if k.startswith(f"{category}/")}


def _emits_by_site(monkeypatch) -> Counter:
    """Count ``Tracer.emit`` calls per guarded caller from now on."""
    calls: Counter = Counter()
    emit = Tracer.emit

    def counted(self, *args, **kwargs):
        caller = sys._getframe(1)
        site = (caller.f_globals.get("__name__"), caller.f_code.co_name)
        if site in GUARDED:
            calls[site] += 1
        return emit(self, *args, **kwargs)

    monkeypatch.setattr(Tracer, "emit", counted)
    return calls


#: Untraced, these cells must not reach ``Tracer.emit`` from a guarded
#: site; traced, together they reach every one.
SILENT_CELLS = {
    "host_50vm": lambda: decentralization.run(
        vms=50, pcpus=16, vcpus_per_vm=2, duration_ns=200 * MS, seed=0
    ),
    "apache_rps_6000_vscale": CELLS["apache_rps_6000_vscale"],
}


def test_untraced_cells_call_no_guarded_emit(monkeypatch):
    # A sanitizer keeps a trace tail of every category, so it traces.
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    calls = _emits_by_site(monkeypatch)
    for cell in SILENT_CELLS.values():
        cell()
    assert calls == Counter()


def test_traced_cells_reach_every_guarded_site(monkeypatch, tmp_path):
    """The control for the test above: traced, the same cells emit from
    every guarded site."""
    calls = _emits_by_site(monkeypatch)
    for name, cell in SILENT_CELLS.items():
        with capture_to(str(tmp_path / f"{name}.rtl")):
            cell()
    assert set(calls) == GUARDED
