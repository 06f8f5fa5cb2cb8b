"""Tests for the NPB workload models."""

import pytest

from repro.sim.rng import SeedSequenceFactory
from repro.units import SEC
from repro.workloads.npb import NPBApp, NPB_PROFILES
from repro.workloads.openmp import SPINCOUNT_ACTIVE, SPINCOUNT_PASSIVE
from tests.conftest import StackBuilder


def run_app(name, spincount=SPINCOUNT_ACTIVE, nthreads=None, scale=0.05):
    from dataclasses import replace

    builder = StackBuilder(pcpus=4)
    kernel = builder.guest("vm", vcpus=4)
    seeds = SeedSequenceFactory(1)
    profile = NPB_PROFILES[name]
    profile = replace(profile, iterations=max(2, round(profile.iterations * scale)))
    app = NPBApp(kernel, profile, spincount, seeds.generator("npb"), nthreads=nthreads)
    app.launch()
    machine = builder.start()
    machine.run(until=120 * SEC)
    return app, kernel


def test_profiles_cover_the_suite():
    assert set(NPB_PROFILES) == {"bt", "cg", "dc", "ep", "ft", "is", "lu", "mg", "sp", "ua"}


def test_lu_has_custom_spin_and_sparse_barriers():
    assert NPB_PROFILES["lu"].custom_spin
    assert NPB_PROFILES["lu"].barrier_every > 1


@pytest.mark.parametrize("name", ["bt", "ep", "lu", "ua"])
def test_apps_run_to_completion(name):
    app, kernel = run_app(name)
    assert app.done
    assert app.duration_ns > 0


def test_lu_relay_completes_under_passive_policy(self=None):
    app, kernel = run_app("lu", spincount=SPINCOUNT_PASSIVE)
    assert app.done


def test_team_size_follows_nthreads():
    app, kernel = run_app("cg", nthreads=2)
    assert len(app.harness.threads) == 2


def test_team_defaults_to_provisioned_vcpus():
    app, kernel = run_app("cg")
    assert len(app.harness.threads) == 4


def test_duration_scales_with_team_packing():
    """2 threads on 4 vCPUs do the same per-thread work as 4 threads, so
    the app's total work halves; the makespan should not grow."""
    four, _ = run_app("ep", nthreads=4)
    two, _ = run_app("ep", nthreads=2)
    assert two.duration_ns <= four.duration_ns * 1.5
