"""Generality benchmark: vScale on two different hypervisor schedulers.

The paper argues Algorithm 1 "is generic" and can integrate with other
proportional-share schedulers, including virtual-runtime based ones.  This
bench runs the same consolidated NPB experiment on both the Xen-style
credit scheduler and the virtual-runtime (Credit2-class) scheduler and
checks that vScale's mechanism delivers on both substrates.
"""

from repro.experiments.npb_common import run_cell
from repro.experiments.setups import Config
from repro.metrics.report import Table
from repro.workloads.openmp import SPINCOUNT_ACTIVE


def test_vscale_generalizes_across_schedulers(bench_once):
    def run():
        results = {}
        for scheduler in ("credit", "vrt"):
            for config in (Config.VANILLA, Config.VSCALE):
                cell = run_cell("cg", 4, SPINCOUNT_ACTIVE, config, scheduler=scheduler)
                results[(scheduler, config)] = (cell.duration_ns, cell.wait_ns)
        return results

    results = bench_once(run)
    table = Table(
        "vScale on two proportional-share schedulers (NPB cg, heavy spin)",
        ["scheduler", "config", "duration (s)", "VM wait (s)"],
    )
    for (scheduler, config), (duration, wait) in results.items():
        table.add_row(scheduler, config.value, duration / 1e9, wait / 1e9)
    print()
    print(table.render())

    for scheduler in ("credit", "vrt"):
        vanilla_d, vanilla_w = results[(scheduler, Config.VANILLA)]
        vscale_d, vscale_w = results[(scheduler, Config.VSCALE)]
        # The mechanism generalizes: on both substrates vScale slashes the
        # VM's scheduling-queue waiting time.
        assert vscale_w < vanilla_w * 0.35, scheduler
    # The *runtime* benefit depends on how much delay the substrate
    # inflicts: the credit scheduler's 30ms slices amplify stragglers, so
    # vScale wins outright there; the virtual-runtime scheduler already
    # interleaves finely (less straggling to save), so vScale only has to
    # stay in the same ballpark.
    credit_vanilla, _ = results[("credit", Config.VANILLA)]
    credit_vscale, _ = results[("credit", Config.VSCALE)]
    assert credit_vscale <= credit_vanilla * 1.05
    vrt_vanilla, _ = results[("vrt", Config.VANILLA)]
    vrt_vscale, _ = results[("vrt", Config.VSCALE)]
    assert vrt_vscale <= vrt_vanilla * 1.4
