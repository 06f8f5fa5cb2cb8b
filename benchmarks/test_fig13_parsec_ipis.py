"""Benchmark for Figure 13: PARSEC per-vCPU IPI rates (vanilla runs).

The IPI profile explains Figure 11: communication-driven applications are
the ones vScale helps.  The paper's signature numbers: dedup ~940
IPIs/s/vCPU (mm semaphore pressure), streamcluster ~183 (hand-rolled
barrier), and near-zero for the well-partitioned codes.
"""

from repro.experiments import fig11_13
from repro.experiments.setups import Config
from repro.metrics.report import Table
from repro.workloads.parsec import PARSEC_PROFILES


def test_fig13_parsec_ipi_rates(bench_once):
    result = bench_once(fig11_13.run, 4, None, [Config.VANILLA], 3)
    table = Table(
        "Figure 13: vIPIs per second per vCPU (PARSEC, vanilla)",
        ["app", "vIPI/s/vCPU"],
    )
    rates = {app: result.ipi_rate(app) for app in PARSEC_PROFILES}
    for app, rate in sorted(rates.items(), key=lambda kv: -kv[1]):
        table.add_row(app, f"{rate:.0f}")
    print()
    print(table.render())

    # dedup dominates the profile by a wide margin.
    assert rates["dedup"] == max(rates.values())
    assert rates["dedup"] > 300
    # streamcluster's barrier traffic is clearly visible.
    assert rates["streamcluster"] > 50
    # Well-partitioned / sync-free codes barely communicate.
    for app in ("blackscholes", "raytrace", "swaptions", "freqmine"):
        assert rates[app] < 60, (app, rates[app])
    # Ordering: communication-driven group above the quiet group.
    quiet_max = max(rates[a] for a in ("blackscholes", "raytrace", "swaptions"))
    assert rates["dedup"] > quiet_max * 5
