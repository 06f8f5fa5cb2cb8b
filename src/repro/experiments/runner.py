"""Regenerate the paper's tables and figures from the command line.

The pytest benchmarks under ``benchmarks/`` are the canonical harness
(they also assert shapes); this runner is the convenience front-end for
producing the result text without pytest::

    python -m repro.experiments.runner --list
    python -m repro.experiments.runner table1 fig5
    python -m repro.experiments.runner --all --scale 0.3 --jobs 4 --out results/

Each experiment writes its rendered table/series to stdout and, with
``--out``, to ``<out>/<name>.txt`` (plus ``<name>.json`` and a
``telemetry.json``).  Every experiment runs through the parallel
executor (``repro.parallel``): grid experiments fan their cells out over
``--jobs`` worker processes, and every run executes every cell.  The
simulator is seeded and bit-for-bit deterministic, so stdout is
byte-identical regardless of ``--jobs``; per-cell timings and the
summary go to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Callable

from repro.parallel import CellSpec, ParallelExecutor


def positive_scale(text: str) -> float:
    """The ``--scale`` argument type: a finite number above zero.

    ``nan`` and ``inf`` parse as floats but scale no run, and a scale at or
    below zero shrinks every run to nothing, so all are rejected here."""
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be a positive number, got {text!r}")
    return value


def _single(executor: ParallelExecutor, name: str, fn, **kwargs):
    """Run a non-grid experiment as one cell."""
    return executor.run_cell(CellSpec(name, name, fn, kwargs))


def _table1(scale: float, executor: ParallelExecutor):
    from repro.experiments import table1

    return _single(
        executor, "table1", table1.run, iterations=max(1000, int(1_000_000 * scale))
    )


def _fig4(scale: float, executor: ParallelExecutor):
    from repro.experiments import fig4

    return _single(executor, "fig4", fig4.run, iterations=max(200, int(10_000 * scale)))


def _table2(scale: float, executor: ParallelExecutor):
    from repro.experiments import table2

    return _single(executor, "table2", table2.run)


def _table3(scale: float, executor: ParallelExecutor):
    from repro.experiments import table3

    return _single(
        executor, "table3", table3.run, iterations=max(20, int(200 * scale))
    )


def _fig5(scale: float, executor: ParallelExecutor):
    from repro.experiments import fig5

    return _single(executor, "fig5", fig5.run, cycles=max(20, int(100 * scale)))


def _fig6(scale: float, executor: ParallelExecutor, scheduler: str | None = None):
    from repro.experiments import fig6_7

    return fig6_7.run(
        vcpus=4, work_scale=scale, scheduler=scheduler, executor=executor
    )


def _fig7(scale: float, executor: ParallelExecutor, scheduler: str | None = None):
    from repro.experiments import fig6_7
    from repro.experiments.setups import Config
    from repro.workloads.openmp import SPINCOUNT_ACTIVE

    return fig6_7.run(
        vcpus=8,
        spincounts=(SPINCOUNT_ACTIVE,),
        configs=[Config.VANILLA, Config.VSCALE],
        work_scale=scale,
        scheduler=scheduler,
        executor=executor,
    )


def _fig8(scale: float, executor: ParallelExecutor):
    from repro.experiments import fig8

    specs = [
        CellSpec("fig8", f"{vcpus}v", fig8.run, dict(vcpus=vcpus, work_scale=scale))
        for vcpus in (4, 8)
    ]
    return executor.run_cells(specs)


def _fig9(scale: float, executor: ParallelExecutor):
    from repro.experiments import fig9

    return fig9.run(work_scale=scale, executor=executor)


def _fig10(scale: float, executor: ParallelExecutor):
    from repro.experiments import fig10

    return fig10.run(work_scale=scale, executor=executor)


def _fig11(scale: float, executor: ParallelExecutor):
    from repro.experiments import fig11_13

    return fig11_13.run(vcpus=4, work_scale=scale, executor=executor)


def _fig12(scale: float, executor: ParallelExecutor):
    from repro.experiments import fig11_13
    from repro.experiments.setups import Config

    return fig11_13.run(
        vcpus=8,
        configs=[Config.VANILLA, Config.VSCALE],
        work_scale=scale,
        executor=executor,
    )


def _fig13(scale: float, executor: ParallelExecutor):
    from repro.experiments import fig11_13

    return fig11_13.run_fig13(vcpus=4, work_scale=scale, executor=executor)


def _fig14(scale: float, executor: ParallelExecutor):
    from repro.experiments import fig14
    from repro.units import SEC

    duration = max(1, round(3 * scale)) * SEC
    return _single(executor, "fig14", fig14.run, duration_ns=duration)


def _variance(scale: float, executor: ParallelExecutor):
    from repro.experiments import variance

    return variance.run(work_scale=scale, executor=executor)


def _ablations(scale: float, executor: ParallelExecutor):
    from repro.experiments import ablations

    return ablations.run_all(work_scale=max(0.05, 0.5 * scale), executor=executor)


def _faults(scale: float, executor: ParallelExecutor, scheduler: str | None = None):
    from repro.experiments import faults

    return faults.run(work_scale=scale, scheduler=scheduler, executor=executor)


def _chaos(scale: float, executor: ParallelExecutor, scheduler: str | None = None):
    from repro.experiments import chaos

    return chaos.run(work_scale=scale, scheduler=scheduler, executor=executor)


def _generality(scale: float, executor: ParallelExecutor, scheduler: str | None = None):
    from repro.experiments import generality

    schedulers = (scheduler,) if scheduler is not None else None
    return generality.run(
        schedulers=schedulers, work_scale=scale, executor=executor
    )


#: name -> (description, fn(scale, executor) -> result object(s)).  The
#: functions return renderable result objects (or lists of them), never
#: pre-rendered strings.
EXPERIMENTS: dict[str, tuple[str, Callable[[float, ParallelExecutor], object]]] = {
    "table1": ("vScale channel read overhead", _table1),
    "fig4": ("dom0/libxl monitoring cost", _fig4),
    "table2": ("frozen-vCPU interrupt quiescence", _table2),
    "table3": ("freeze cost breakdown", _table3),
    "fig5": ("CPU hotplug latency CDFs", _fig5),
    "fig6": ("NPB normalized times, 4-vCPU VM", _fig6),
    "fig7": ("NPB normalized times, 8-vCPU VM", _fig7),
    "fig8": ("active-vCPU traces (bt)", _fig8),
    "fig9": ("waiting-time reduction", _fig9),
    "fig10": ("NPB vIPI rates", _fig10),
    "fig11": ("PARSEC normalized times, 4-vCPU VM", _fig11),
    "fig12": ("PARSEC normalized times, 8-vCPU VM", _fig12),
    "fig13": ("PARSEC vIPI rates (vanilla)", _fig13),
    "fig14": ("Apache under httperf", _fig14),
    "variance": ("seed-variance error bars (cg)", _variance),
    "ablations": ("design-choice ablations", _ablations),
    "faults": ("fault-rate x workload robustness matrix", _faults),
    "chaos": ("crash-stop faults and recovery protocols", _chaos),
    "generality": ("scheduler-zoo n_i = ceil(s_ext/t) grid", _generality),
}

#: Experiments whose grids accept a ``--scheduler`` override.  The rest
#: always run on the default scheduler (their goldens pin its behavior).
SCHEDULER_AWARE = {"fig6", "fig7", "faults", "chaos", "generality"}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.experiments.runner", description=__doc__
    )
    parser.add_argument("names", nargs="*", help="experiments to run")
    parser.add_argument("--all", action="store_true", help="run everything")
    parser.add_argument("--list", action="store_true", help="list experiments")
    parser.add_argument(
        "--scale",
        type=positive_scale,
        default=1.0,
        help="work scale factor (0 < scale <= 1 shrinks runs)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for grid cells (default: REPRO_JOBS or CPU count)",
    )
    parser.add_argument("--out", type=Path, default=None, help="output directory")
    parser.add_argument(
        "--scheduler",
        default=None,
        help="pool scheduler for scheduler-aware grids "
        f"({', '.join(sorted(SCHEDULER_AWARE))})",
    )
    args = parser.parse_args(argv)

    if args.list:
        for name, (description, _) in EXPERIMENTS.items():
            print(f"{name:9s} {description}")
        return 0

    names = list(EXPERIMENTS) if args.all else args.names
    if not names:
        parser.error("no experiments given (use --all or --list)")
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiments: {unknown}")
    if args.jobs is not None and args.jobs < 1:
        parser.error("--jobs must be at least 1")
    if args.scheduler is not None:
        from repro.hypervisor.schedulers import available

        if args.scheduler not in available():
            parser.error(
                f"unknown scheduler {args.scheduler!r} "
                f"(available: {', '.join(available())})"
            )
        unaware = [n for n in names if n not in SCHEDULER_AWARE]
        if unaware:
            parser.error(
                f"--scheduler does not apply to: {', '.join(unaware)} "
                f"(scheduler-aware: {', '.join(sorted(SCHEDULER_AWARE))})"
            )

    executor = ParallelExecutor(jobs=args.jobs)
    telemetry = executor.telemetry
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
    for name in names:
        description, fn = EXPERIMENTS[name]
        print(f"=== {name}: {description}", flush=True)
        mark = telemetry.mark()
        if name in SCHEDULER_AWARE:
            outcome = fn(args.scale, executor, args.scheduler)
        else:
            outcome = fn(args.scale, executor)
        parts = outcome if isinstance(outcome, list) else [outcome]
        text = "\n\n".join(part.render() for part in parts)
        print(text)
        print(flush=True)
        cell_lines = telemetry.render_cells(since=mark)
        if cell_lines:
            print(cell_lines, file=sys.stderr)
        print(
            f"--- {name} done in {telemetry.executed_seconds(since=mark):.1f}s",
            file=sys.stderr,
            flush=True,
        )
        if args.out is not None:
            (args.out / f"{name}.txt").write_text(text + "\n")
            from repro.experiments import results as results_mod

            payload = (
                [results_mod.to_dict(part, name) for part in parts]
                if len(parts) > 1
                else results_mod.to_dict(parts[0], name)
            )
            (args.out / f"{name}.json").write_text(
                json.dumps(payload, indent=2, sort_keys=True) + "\n"
            )
    print(telemetry.summary(), file=sys.stderr, flush=True)
    if args.out is not None:
        (args.out / "telemetry.json").write_text(
            json.dumps(telemetry.to_dict(), indent=2, sort_keys=True) + "\n"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
