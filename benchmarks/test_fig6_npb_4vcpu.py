"""Benchmark for Figure 6: NPB-OMP normalized execution time, 4-vCPU VM.

Three panels (GOMP_SPINCOUNT = 30B / 300K / 0) x four configurations over
the ten NPB applications.  Shape assertions follow the paper:
synchronization-intensive apps speed up heavily under vScale with active
spinning; ep/ft/is are insensitive; pv-spinlock only matters once spinning
moves into the kernel (smaller spin counts).
"""

import statistics

from repro.experiments import fig6_7
from repro.experiments.setups import Config
from repro.workloads.openmp import (
    SPINCOUNT_ACTIVE,
    SPINCOUNT_DEFAULT,
    SPINCOUNT_PASSIVE,
)


def test_fig6_npb_4vcpu(bench_once):
    result = bench_once(fig6_7.run, 4, None, fig6_7.SPINCOUNTS, None, 3)
    print()
    print(result.render())
    from repro.metrics.ascii import hbar_chart
    from repro.workloads.npb import NPB_PROFILES

    rows = [
        (app, result.normalized(app, SPINCOUNT_ACTIVE, Config.VSCALE))
        for app in NPB_PROFILES
    ]
    print()
    print(
        hbar_chart(
            "vScale normalized time, GOMP_SPINCOUNT=30B (1.0 = vanilla)",
            rows,
            max_value=1.2,
            unit="x",
        )
    )

    # Panel (a), heavy spinning: clear wins on the sync-heavy apps.  The
    # vanilla baseline is chaotic (straggler amplification swings its
    # runtime ~2x across seeds), so the robust assertions are the group
    # ordering and a modest absolute bound, not a single-seed magnitude.
    heavy = [
        result.normalized(app, SPINCOUNT_ACTIVE, Config.VSCALE)
        for app in fig6_7.SYNC_HEAVY
    ]
    insensitive = [
        result.normalized(app, SPINCOUNT_ACTIVE, Config.VSCALE)
        for app in fig6_7.INSENSITIVE
    ]
    assert statistics.mean(heavy) < 0.88
    assert min(heavy) < 0.8  # at least one strong winner
    assert statistics.mean(heavy) < statistics.mean(insensitive) - 0.08

    # Insensitive apps barely move at any policy.
    for app in fig6_7.INSENSITIVE:
        for spincount in fig6_7.SPINCOUNTS:
            norm = result.normalized(app, spincount, Config.VSCALE)
            assert 0.7 <= norm <= 1.25, (app, spincount, norm)

    # pv-spinlock alone is nearly irrelevant under pure user-level
    # spinning (the spinning never enters the kernel).
    pv_heavy = [
        result.normalized(app, SPINCOUNT_ACTIVE, Config.PVLOCK)
        for app in fig6_7.SYNC_HEAVY
    ]
    assert statistics.mean(pv_heavy) > statistics.mean(heavy)

    # vScale+pvlock is never much worse than vScale alone.
    for app in fig6_7.SYNC_HEAVY:
        both = result.normalized(app, SPINCOUNT_ACTIVE, Config.VSCALE_PVLOCK)
        alone = result.normalized(app, SPINCOUNT_ACTIVE, Config.VSCALE)
        assert both <= alone * 1.35

    # Panel (c), passive waiting: effects compress towards 1.0 (our
    # simulation slightly over-charges thread packing here; the paper
    # still shows small vScale wins — see EXPERIMENTS.md).
    for app in fig6_7.SYNC_HEAVY:
        norm = result.normalized(app, SPINCOUNT_PASSIVE, Config.VSCALE)
        assert 0.6 <= norm <= 1.4, (app, norm)
