"""Benchmark for Figure 14: Apache under httperf — reply rate, connection
time and response time vs. request rate, four configurations."""

from repro.experiments import fig14
from repro.experiments.setups import Config
from repro.units import SEC


def test_fig14_apache(bench_once):
    result = bench_once(fig14.run, None, None, 3 * SEC)
    print()
    print(result.render())

    # (a) Reply rate: linear at low load for everyone...
    for config in (Config.VANILLA, Config.VSCALE):
        for rate in (1000, 3000):
            assert result.reply_rate(config, rate) >= rate * 0.93, (config, rate)
    # ... and vScale sustains a peak at/above vanilla's, near the point
    # that saturates the 1GbE link (~7K/s for 16KB replies).
    vanilla_peak = result.peak_reply_rate(Config.VANILLA)
    vscale_peak = result.peak_reply_rate(Config.VSCALE)
    # vScale sustains a peak near the paper's 6.6K/s.  (Our vanilla's
    # collapse is compressed — see EXPERIMENTS.md — so we only require
    # vScale to be competitive on raw peak while clearly winning on the
    # latency panels below.)
    assert vscale_peak >= vanilla_peak * 0.90
    assert vscale_peak >= 6000
    # vScale+pvlock is the best overall (paper: 6.9K/s, close to optimal).
    best_peak = result.peak_reply_rate(Config.VSCALE_PVLOCK)
    assert best_peak >= vscale_peak * 0.95

    # (b) Connection time: vanilla's interrupt delays blow it up under
    # load; vScale keeps it flat (paper: lowest in all group tests).
    assert result.mean_connection_ms(Config.VSCALE, 9000) < result.mean_connection_ms(
        Config.VANILLA, 9000
    )
    assert result.mean_connection_ms(Config.VSCALE, 9000) < 2.0
    assert result.mean_connection_ms(Config.VANILLA, 9000) > 2.0

    # (c) Response time: vScale at or below vanilla at high load.
    assert (
        result.mean_response_ms(Config.VSCALE, 9000)
        <= result.mean_response_ms(Config.VANILLA, 9000) * 1.1
    )
    # Past overload everyone drops requests (open-loop client).
    assert result.points[(Config.VANILLA, 10000)].drops > 0
