"""Benchmark for Figure 8: the active-vCPU trace of bt under vScale."""

from repro.experiments import fig8
from repro.metrics.ascii import step_trace


def test_fig8_active_vcpu_traces(bench_once):
    def run():
        return fig8.run(vcpus=4), fig8.run(vcpus=8)

    result4, result8 = bench_once(run)
    print()
    print(result4.render())
    print(result8.render())
    for result in (result4, result8):
        points = [(t / 1e9, n) for t, n in result.trace]
        print()
        print(
            step_trace(
                f"active vCPUs over time (bt, {result.vcpus}-vCPU VM, seconds)",
                points,
                levels=range(1, result.vcpus + 1),
            )
        )
    # The VM adapts: the trace records actual changes, oscillating within
    # [1, provisioned] and touching at least two distinct levels.
    for result, provisioned in ((result4, 4), (result8, 8)):
        assert result.trace, "no scaling activity recorded"
        levels = result.levels()
        assert all(1 <= n <= provisioned for n in levels)
        assert len(levels) >= 2
    # The 8-vCPU VM explores higher counts than the 4-vCPU VM can.
    assert max(result8.levels()) > max(result4.levels())
