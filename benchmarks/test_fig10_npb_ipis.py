"""Benchmark for Figure 10: NPB virtual-IPI rates per spin policy."""

from repro.experiments import fig10
from repro.workloads.npb import NPB_PROFILES
from repro.workloads.openmp import (
    SPINCOUNT_ACTIVE,
    SPINCOUNT_DEFAULT,
    SPINCOUNT_PASSIVE,
)

SPINCOUNTS = (SPINCOUNT_ACTIVE, SPINCOUNT_DEFAULT, SPINCOUNT_PASSIVE)


def test_fig10_npb_ipi_rates(bench_once):
    result = bench_once(fig10.run, None, SPINCOUNTS, 4, 3)
    print()
    print(result.render())
    # Heavy spinning needs no wake-ups: IPI rates stay low everywhere.
    for app in NPB_PROFILES:
        assert result.rate(app, SPINCOUNT_ACTIVE) < 120, app
    # The futex-reliant apps light up at GOMP_SPINCOUNT=0 (paper: mg, sp
    # and ua reach hundreds to ~1000/s/vCPU).
    for app in ("mg", "sp", "ua", "cg"):
        passive = result.rate(app, SPINCOUNT_PASSIVE)
        active = result.rate(app, SPINCOUNT_ACTIVE)
        assert passive > 100, (app, passive)
        assert passive > active * 3, app
    # ep barely synchronizes under any policy.
    assert result.rate("ep", SPINCOUNT_PASSIVE) < 60
