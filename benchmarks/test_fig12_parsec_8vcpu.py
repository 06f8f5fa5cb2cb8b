"""Benchmark for Figure 12: PARSEC normalized execution time, 8-vCPU VM.

Runs vanilla vs. vScale over the full suite (the pvlock variants add
little information at this size and double the cost)."""

import statistics

from repro.experiments import fig11_13
from repro.experiments.setups import Config


def test_fig12_parsec_8vcpu(bench_once):
    result = bench_once(fig11_13.run, 8, None, [Config.VANILLA, Config.VSCALE], 3)
    print()
    print(result.render())
    comm = [result.normalized(app, Config.VSCALE) for app in fig11_13.COMM_DRIVEN]
    assert statistics.mean(comm) < 1.05
    for app in fig11_13.MARGINAL:
        norm = result.normalized(app, Config.VSCALE)
        assert 0.55 <= norm <= 1.4, (app, norm)
