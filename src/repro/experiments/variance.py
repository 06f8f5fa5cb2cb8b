"""Seed-variance analysis for the application experiments.

The consolidated-host experiments are chaotic: the vanilla baseline's
runtime swings by around 2x across seeds because straggler amplification
compounds small scheduling differences.  Single-seed numbers are therefore
honest only with an error bar.  This module reruns one experiment cell
across several seeds and reports the distribution of the vScale reduction,
which the paper approximates by averaging three runs.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field, replace

from repro.experiments import fig6_7
from repro.experiments.setups import Config
from repro.metrics.report import Table
from repro.parallel import ParallelExecutor, get_default_executor


@dataclass
class VarianceResult:
    app: str
    spincount: int
    seeds: list[int]
    #: seed -> (vanilla_ns, vscale_ns)
    durations: dict[int, tuple[int, int]] = field(default_factory=dict)

    @property
    def reductions(self) -> list[float]:
        return [
            1.0 - vscale / vanilla
            for vanilla, vscale in self.durations.values()
        ]

    @property
    def mean_reduction(self) -> float:
        return statistics.mean(self.reductions)

    @property
    def spread(self) -> float:
        """Half the range of reductions — a crude but honest error bar."""
        reductions = self.reductions
        return (max(reductions) - min(reductions)) / 2

    @property
    def always_wins(self) -> bool:
        return all(reduction > 0 for reduction in self.reductions)

    def render(self) -> str:
        table = Table(
            f"Seed variance: NPB {self.app} (spincount={self.spincount})",
            ["seed", "vanilla (s)", "vScale (s)", "reduction"],
        )
        for seed, (vanilla, vscale) in self.durations.items():
            table.add_row(
                seed,
                vanilla / 1e9,
                vscale / 1e9,
                f"{(1 - vscale / vanilla) * 100:+.0f}%",
            )
        lines = [table.render()]
        lines.append(
            f"mean reduction {self.mean_reduction * 100:+.0f}% "
            f"(+- {self.spread * 100:.0f}% across seeds)"
        )
        return "\n".join(lines)


def run(
    app: str = "cg",
    spincount: int = 30_000_000_000,
    seeds: tuple[int, ...] = (3, 4, 5),
    vcpus: int = 4,
    work_scale: float = 1.0,
    executor: ParallelExecutor | None = None,
) -> VarianceResult:
    """Run (vanilla, vScale) for each seed and collect the distribution."""
    if len(seeds) < 2:
        raise ValueError("variance needs at least two seeds")
    if executor is None:
        executor = get_default_executor()
    result = VarianceResult(app=app, spincount=spincount, seeds=list(seeds))
    specs = [
        replace(spec, name=f"{spec.name}/seed={seed}")
        for seed in seeds
        for spec in fig6_7.cells(
            vcpus, [app], (spincount,), [Config.VANILLA, Config.VSCALE], seed, work_scale
        )
    ]
    outcomes = executor.run_cells(specs)
    for index, seed in enumerate(seeds):
        vanilla, vscale = outcomes[2 * index], outcomes[2 * index + 1]
        result.durations[seed] = (vanilla.duration_ns, vscale.duration_ns)
    return result
