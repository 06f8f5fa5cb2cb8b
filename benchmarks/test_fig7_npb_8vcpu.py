"""Benchmark for Figure 7: NPB-OMP normalized execution time, 8-vCPU VM.

Same matrix as Figure 6 on an 8-vCPU worker (with 4 background desktops
keeping the 2 vCPUs/pCPU consolidation).  To bound runtime the bench runs
the heavy-spin panel over the full suite and the other two panels over a
representative subset.
"""

import statistics

from repro.experiments import fig6_7
from repro.experiments.setups import Config
from repro.workloads.openmp import SPINCOUNT_ACTIVE, SPINCOUNT_DEFAULT

SUBSET = ["bt", "cg", "ep", "lu", "ua"]


def test_fig7_npb_8vcpu(bench_once):
    def run():
        full = fig6_7.run(
            vcpus=8,
            spincounts=(SPINCOUNT_ACTIVE,),
            configs=[Config.VANILLA, Config.VSCALE],
        )
        partial = fig6_7.run(
            vcpus=8,
            apps=SUBSET,
            spincounts=(SPINCOUNT_DEFAULT,),
            configs=[Config.VANILLA, Config.VSCALE],
        )
        full.cells.update(partial.cells)
        return full

    result = bench_once(run)
    print()
    print(result.render())

    heavy = [
        result.normalized(app, SPINCOUNT_ACTIVE, Config.VSCALE)
        for app in fig6_7.SYNC_HEAVY
    ]
    assert statistics.mean(heavy) < 0.8
    for app in fig6_7.INSENSITIVE:
        norm = result.normalized(app, SPINCOUNT_ACTIVE, Config.VSCALE)
        assert 0.65 <= norm <= 1.3, (app, norm)
