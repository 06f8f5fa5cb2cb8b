"""Benchmark for Figure 9: VM waiting-time reduction under vScale."""

from repro.experiments import fig9


def test_fig9_waiting_time_reduction(bench_once):
    result = bench_once(fig9.run, None, 4, 30_000_000_000, True, 3)
    print()
    print(result.render())
    # Paper: >90% reduction across all NPB applications, with or without
    # pv-spinlock.
    for app in result.plain:
        assert result.reduction(app) > 0.9, (app, result.reduction(app))
    for app in result.pvlock:
        assert result.reduction(app, with_pvlock=True) > 0.9, app
