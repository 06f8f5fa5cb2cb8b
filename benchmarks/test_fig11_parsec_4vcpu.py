"""Benchmark for Figure 11: PARSEC normalized execution time, 4-vCPU VM."""

import statistics

from repro.experiments import fig11_13
from repro.experiments.setups import Config


def test_fig11_parsec_4vcpu(bench_once):
    result = bench_once(fig11_13.run, 4, None, None, 3)
    print()
    print(result.render())

    # Communication-driven apps benefit; the gains are diverse but the
    # group as a whole must come out ahead of vanilla.
    comm = [result.normalized(app, Config.VSCALE) for app in fig11_13.COMM_DRIVEN]
    assert statistics.mean(comm) < 1.0

    # dedup — the paper's standout IPI producer — at least holds even
    # while converting its inter-vCPU wake-ups into local ones (the
    # paper's 22% gain compresses here; see EXPERIMENTS.md).
    assert result.normalized("dedup", Config.VSCALE) <= 1.02

    # Marginal apps stay within a loose band under every configuration
    # (freqmine — OpenMP — can overshoot towards a win in our simulator).
    for app in fig11_13.MARGINAL:
        for config in (Config.VSCALE, Config.PVLOCK, Config.VSCALE_PVLOCK):
            norm = result.normalized(app, config)
            assert 0.5 <= norm <= 1.3, (app, config.value, norm)

    # IPI profile (Figure 13 inputs): dedup far ahead of everyone.
    dedup_rate = result.ipi_rate("dedup")
    assert dedup_rate > 300
    assert dedup_rate > result.ipi_rate("streamcluster")
    assert result.ipi_rate("swaptions") < 20
