"""The end-to-end benchmark's workloads: which cells run, in what order.

A *cell* is one call of a public experiment function.  Each workload
draws its cells from a fixed pool (grid point x pool seed) whose result
digests are stored in ``expected/<workload>.json``, so every run seed is
checked for correctness, not only the seeds the files were written with.
A run seed picks the cells' pool seeds and their order through
``numpy.random.SeedSequence(seed)``.

Cells come in *rounds*: one round visits every grid point of a workload
once, in a seeded order in which the vanilla and vScale variants of a
grid point run back to back.  A run always executes whole rounds, so the
mix of cells behind a percentile is the same whatever the run length.

This module imports nothing from ``repro`` at import time: ``run.py``
uses the workload table without loading the simulator.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

NPB_APPS = ("bt", "cg", "dc", "ep", "ft", "is", "lu", "mg", "sp", "ua")
#: The sync-heavy NPB apps and the paper's vScale/vanilla time (Fig 6a,
#: EXPERIMENTS.md); ``None`` where the paper gives no number.
NPB_PAPER_RATIO = {"bt": 0.61, "cg": 0.49, "lu": 0.27, "sp": 0.41, "ua": 0.22, "mg": None}
APACHE_RATES = (2000, 6000, 10000)
CONFIGS = ("VANILLA", "VSCALE")


@dataclass(frozen=True)
class Cell:
    """One experiment call: ``workload``'s runner applied to ``kwargs``."""

    workload: str
    kwargs: tuple  # sorted (name, value) pairs, so cells are hashable

    @property
    def key(self) -> str:
        """Stable id under which the cell's digest is stored."""
        return "|".join(f"{k}={v}" for k, v in self.kwargs)

    def args(self) -> dict:
        return dict(self.kwargs)


def make_cell(workload: str, **kwargs: Any) -> Cell:
    return Cell(workload, tuple(sorted(kwargs.items())))


@dataclass(frozen=True)
class CellRun:
    """What running a cell produced, beyond its wall time."""

    digest: str
    sim_ns: int
    #: Model outputs the report compares with the paper's values.
    outputs: dict = field(default_factory=dict)


def digest(result: Any) -> str:
    """sha256 of the experiment's flattened result (``results.to_dict``)."""
    from repro.experiments.results import to_dict

    payload = json.dumps(to_dict(result), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def _run_npb(app: str, config: str, seed: int, work_scale: float = 1.0) -> CellRun:
    from repro.experiments.npb_common import WARMUP_NS, run_cell
    from repro.experiments.setups import Config
    from repro.workloads.openmp import SPINCOUNT_ACTIVE

    result = run_cell(app, 4, SPINCOUNT_ACTIVE, Config[config], seed=seed, work_scale=work_scale)
    return CellRun(digest(result), WARMUP_NS + result.duration_ns, {"duration_ns": result.duration_ns})


def _run_apache(config: str, rate: int, seed: int, duration_ns: int = 10**9) -> CellRun:
    from repro.experiments import fig14
    from repro.experiments.setups import Config
    from repro.units import SEC

    result = fig14.run_point(Config[config], rate, duration_ns=duration_ns, seed=seed)
    conn = result.connection_time
    outputs = {
        "sent": result.sent,
        "drops": result.drops,
        "reply_rate": result.reply_rate,
        "conn_ms": conn.mean() / 1e6 if conn is not None and len(conn) else float("nan"),
    }
    # run_point warms up, offers load for duration_ns, then drains SEC/2.
    return CellRun(digest(result), fig14.WARMUP_NS + duration_ns + SEC // 2, outputs)


def _run_host(seed: int, vms: int = 50, duration_ns: int = 3 * 10**9) -> CellRun:
    from repro.experiments import decentralization

    result = decentralization.run(
        vms=vms, pcpus=16, vcpus_per_vm=2, duration_ns=duration_ns, seed=seed
    )
    return CellRun(digest(result), duration_ns, {"worst_share_error": result.worst_share_error})


@dataclass(frozen=True)
class Workload:
    name: str
    #: Module whose import is timed as the workload's set-up cost.
    entry_module: str
    runner: Callable[..., CellRun]
    #: One round: groups of cell kwargs (without ``seed``).  Groups are
    #: shuffled; the variants inside a group run back to back.
    groups: tuple
    pool_seeds: tuple
    #: Whole rounds a traced run executes.
    trace_rounds: int

    @property
    def round_size(self) -> int:
        """Cells in one round: every grid point once."""
        return sum(len(group) for group in self.groups)

    def round_cells(self, rng) -> list[Cell]:
        cells = []
        for g in rng.permutation(len(self.groups)):
            group = self.groups[g]
            for v in rng.permutation(len(group)):
                seed = self.pool_seeds[int(rng.integers(len(self.pool_seeds)))]
                cells.append(make_cell(self.name, seed=seed, **group[v]))
        return cells

    def rounds(self, seed: int) -> Iterator[list[Cell]]:
        """The run seed's endless sequence of rounds."""
        import numpy as np

        rng = np.random.default_rng(np.random.SeedSequence(seed))
        while True:
            yield self.round_cells(rng)

    def pool(self) -> list[Cell]:
        """Every cell any run seed can draw: the digest-checked set."""
        cells = {}
        for group in self.groups:
            for variant in group:
                for seed in self.pool_seeds:
                    cell = make_cell(self.name, seed=seed, **variant)
                    cells[cell.key] = cell
        return list(cells.values())


WORKLOADS = {
    w.name: w
    for w in (
        # Fig 6a: spinning NPB threads keep vCPUs busy, so the guest tick
        # path dominates.
        Workload(
            name="npb_fig6",
            entry_module="repro.experiments.npb_common",
            runner=_run_npb,
            groups=tuple(tuple({"app": app, "config": c} for c in CONFIGS) for app in NPB_APPS),
            pool_seeds=tuple(range(6)),
            trace_rounds=2,
        ),
        # Fig 14: httperf drives NIC IRQs, IPIs and wake-ups, so the
        # interrupt path dominates instead.
        Workload(
            name="apache_rps",
            entry_module="repro.experiments.fig14",
            runner=_run_apache,
            groups=tuple(
                tuple({"rate": rate, "config": c} for c in CONFIGS) for rate in APACHE_RATES
            ),
            pool_seeds=tuple(range(16)),
            trace_rounds=5,
        ),
        # 50 self-scaling VMs on 16 pCPUs: scheduler, extendability and
        # daemon polling at scale, with no worker app.
        Workload(
            name="host_50vm",
            entry_module="repro.experiments.decentralization",
            runner=_run_host,
            groups=tuple(({},) for _ in range(4)),
            pool_seeds=tuple(range(48)),
            trace_rounds=6,
        ),
    )
}


def execute(cell: Cell) -> CellRun:
    return WORKLOADS[cell.workload].runner(**cell.args())


def model_report(workload: str, first_round: list[tuple[dict, dict]]) -> list[str]:
    """Model outputs beside the paper's values, from ``(cell args, outputs)``.

    Only a run's first round is used: every run of a seed executes it
    whatever the run's length, so parent and change print the same lines.
    """
    lines = []
    if workload == "npb_fig6":
        by = {(args["app"], args["config"]): out["duration_ns"] for args, out in first_round}
        for app, paper in NPB_PAPER_RATIO.items():
            if (app, "VANILLA") in by and (app, "VSCALE") in by:
                ratio = by[(app, "VSCALE")] / by[(app, "VANILLA")]
                shown = "moderate win" if paper is None else f"~{paper:.2f}"
                lines.append(f"{app} vScale/vanilla time {ratio:.3f} (paper {shown})")
    elif workload == "apache_rps":
        for args, out in sorted(first_round, key=lambda run: run[0]["config"], reverse=True):
            if args["rate"] == 10000:
                lines.append(
                    f"{args['config']} @10k req/s: reply {out['reply_rate']:.0f}/s "
                    f"conn {out['conn_ms']:.3f} ms "
                    "(paper: vScale peak 6.6K/s, conn vanilla >> vScale)"
                )
    elif workload == "host_50vm":
        worst = max(out["worst_share_error"] for _, out in first_round)
        lines.append(
            f"worst share error {worst:.4f} over {len(first_round)} hosts "
            "(paper: VMs converge to their entitlement; no figure)"
        )
    return lines
