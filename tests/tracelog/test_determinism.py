"""Trace determinism: same seed ⇒ byte-identical files; tracing never
changes simulation results."""

import functools
import hashlib

import pytest

from repro.experiments import results
from repro.experiments.chaos import run_chaos_cell
from repro.experiments.npb_common import run_cell
from repro.experiments.setups import Config
from repro.hypervisor.schedulers import available
from repro.tracelog.capture import capture_to
from repro.workloads.openmp import SPINCOUNT_ACTIVE


def fig6_cell(seed=7, scheduler=None):
    return run_cell(
        "cg", 2, SPINCOUNT_ACTIVE, Config.VSCALE,
        seed=seed, work_scale=0.02, scheduler=scheduler,
    )


def chaos_crash_cell():
    return run_chaos_cell("crash", work_scale=0.02)


#: One fig6 cell per registered scheduler (a scheduler's own iteration
#: order shows only in its own runs) and a chaos cell whose daemon
#: crashes and recovers.
CELLS = [
    pytest.param(functools.partial(fig6_cell, scheduler=name), id=f"fig6-{name}")
    for name in available()
] + [pytest.param(chaos_crash_cell, id="chaos-crash")]


def _sha(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("cell", CELLS)
def test_same_seed_traces_are_byte_identical(tmp_path, cell):
    digests = []
    for i in range(2):
        path = tmp_path / f"run{i}.rtl"
        with capture_to(str(path)):
            cell()
        digests.append(_sha(path))
    assert digests[0] == digests[1]


def test_different_seed_traces_differ(tmp_path):
    digests = []
    for seed in (7, 8):
        path = tmp_path / f"seed{seed}.rtl"
        with capture_to(str(path)):
            fig6_cell(seed=seed)
        digests.append(_sha(path))
    assert digests[0] != digests[1]


def test_tracing_does_not_change_results(tmp_path):
    """The traced run's cell result equals the untraced run's — tracing
    observes the simulation without perturbing it."""
    untraced = fig6_cell()
    path = tmp_path / "traced.rtl"
    with capture_to(str(path)):
        traced = fig6_cell()
    assert results.dumps(traced) == results.dumps(untraced)
