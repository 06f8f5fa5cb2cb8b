"""Golden-result snapshot tests.

Each case runs a small, fixed-scale experiment and compares its
``results.to_dict`` JSON against a snapshot checked in under
``tests/experiments/goldens/``.  Because the simulator is seeded and
bit-for-bit deterministic, any diff means the simulation's numerical
behavior changed — which must be a conscious decision, not an accident.

Regenerating the snapshots (after an intentional model change)::

    REPRO_UPDATE_GOLDENS=1 python -m pytest \
        tests/experiments/test_goldens.py -q

then review the JSON diff and commit it alongside the change that
caused it.
"""

import json
import os
from pathlib import Path

import pytest

from repro.experiments import results

GOLDENS = Path(__file__).resolve().parent / "goldens"
UPDATE = bool(os.environ.get("REPRO_UPDATE_GOLDENS"))


def _table1():
    from repro.experiments import table1

    return table1.run(iterations=1000)


def _table3():
    from repro.experiments import table3

    return table3.run(iterations=20)


def _fig6_cell():
    from repro.experiments.npb_common import run_cell
    from repro.experiments.setups import Config
    from repro.workloads.openmp import SPINCOUNT_ACTIVE

    return run_cell(
        "cg", 4, SPINCOUNT_ACTIVE, Config.VSCALE, seed=3, work_scale=0.05
    )


def _faults_cell():
    from repro.experiments import faults

    return faults.run_matrix_cell("cg", "vscale", 0.05, seed=3, work_scale=0.05)


def _chaos_cell():
    from repro.experiments import chaos

    return chaos.run_chaos_cell("crash", seed=3, work_scale=0.05)


def _generality_cell():
    from repro.experiments import generality
    from repro.experiments.setups import Config

    return generality.run_cell("credit", Config.VSCALE, seed=3, work_scale=0.05)


def _ablation_hotplug():
    from repro.experiments import ablations

    return ablations._mechanism_point("hotplug", "cg", "v3.14.15", seed=3, work_scale=0.05)


def _ablation_vcpubal():
    from repro.experiments import ablations

    return ablations._policy_point("vcpubal", "cg", seed=3, work_scale=0.05)


def _parsec_cell():
    from repro.experiments import fig11_13
    from repro.experiments.setups import Config

    return fig11_13.run_cell("dedup", 4, Config.VSCALE, seed=3, work_scale=0.05)


CASES = {
    "table1": _table1,
    "table3": _table3,
    "fig6_cell_cg_vscale": _fig6_cell,
    "faults_cell_cg_vscale": _faults_cell,
    "chaos_cell_crash": _chaos_cell,
    "generality_cell_credit_vscale": _generality_cell,
    "ablations_mechanism_hotplug": _ablation_hotplug,
    "ablations_policy_vcpubal": _ablation_vcpubal,
    "parsec_cell_dedup_vscale": _parsec_cell,
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name):
    computed = json.loads(results.dumps(CASES[name](), experiment=name))
    path = GOLDENS / f"{name}.json"
    if UPDATE:
        GOLDENS.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(computed, indent=2, sort_keys=True) + "\n")
        pytest.skip(f"regenerated golden {path.name}")
    assert path.exists(), (
        f"missing golden {path}; regenerate with REPRO_UPDATE_GOLDENS=1 "
        "(see module docstring)"
    )
    expected = json.loads(path.read_text())
    assert computed == expected, (
        f"{name} diverged from its golden snapshot; if the change is "
        "intentional, regenerate with REPRO_UPDATE_GOLDENS=1 and commit "
        "the diff"
    )
