"""Figure 9: reduction of the VM's waiting time under vScale.

For every NPB application the paper compares the worker VM's cumulative
scheduling-queue waiting time between vanilla and vScale (with and
without pv-spinlock): vScale cuts it by over 90% across the board, because
the VM keeps only as many vCPUs as it can actually back with pCPUs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments import fig6_7
from repro.experiments.setups import Config
from repro.metrics.report import Table
from repro.parallel import ParallelExecutor, get_default_executor
from repro.workloads.npb import NPB_PROFILES
from repro.workloads.openmp import SPINCOUNT_ACTIVE


@dataclass
class Fig9Result:
    #: app -> (vanilla wait, vscale wait) without pvlock, in ns.
    plain: dict[str, tuple[int, int]] = field(default_factory=dict)
    #: app -> (vanilla+pv wait, vscale+pv wait) in ns.
    pvlock: dict[str, tuple[int, int]] = field(default_factory=dict)

    def reduction(self, app: str, with_pvlock: bool = False) -> float:
        source = self.pvlock if with_pvlock else self.plain
        base, scaled = source[app]
        if base == 0:
            return 0.0
        return 1.0 - scaled / base

    def render(self) -> str:
        table = Table(
            "Figure 9: waiting-time reduction with vScale (%)",
            ["app", "w/o pvlock", "w/ pvlock"],
        )
        for app in self.plain:
            row = [app, f"{self.reduction(app) * 100:.1f}%"]
            if app in self.pvlock:
                row.append(f"{self.reduction(app, True) * 100:.1f}%")
            else:
                row.append("-")
            table.add_row(*row)
        return table.render()


def run(
    apps: list[str] | None = None,
    vcpus: int = 4,
    spincount: int = SPINCOUNT_ACTIVE,
    include_pvlock: bool = True,
    seed: int = 3,
    work_scale: float = 1.0,
    executor: ParallelExecutor | None = None,
) -> Fig9Result:
    if executor is None:
        executor = get_default_executor()
    configs = [Config.VANILLA, Config.VSCALE]
    if include_pvlock:
        configs += [Config.PVLOCK, Config.VSCALE_PVLOCK]
    specs = fig6_7.cells(vcpus, apps, (spincount,), configs, seed, work_scale)
    by_config = {}
    for cell in executor.run_cells(specs):
        by_config[(cell.app, cell.config)] = cell
    result = Fig9Result()
    for app in apps or list(NPB_PROFILES):
        vanilla = by_config[(app, Config.VANILLA)]
        vscale = by_config[(app, Config.VSCALE)]
        result.plain[app] = (vanilla.wait_ns, vscale.wait_ns)
        if include_pvlock:
            vanilla_pv = by_config[(app, Config.PVLOCK)]
            vscale_pv = by_config[(app, Config.VSCALE_PVLOCK)]
            result.pvlock[app] = (vanilla_pv.wait_ns, vscale_pv.wait_ns)
    return result
