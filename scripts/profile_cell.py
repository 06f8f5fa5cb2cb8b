#!/usr/bin/env python
"""Profile one benchmark cell: hot-function table + collapsed stacks.

Two passes over the same cell from ``benchmarks/perf/``:

1. a ``cProfile`` pass, printed as a cumulative-time-sorted table of the
   hottest functions (deterministic, exact call counts);
2. an optional wall-clock sampling pass (``--collapsed``), written in
   the semicolon-separated *collapsed stack* format that flamegraph
   tooling consumes directly (``flamegraph.pl``, speedscope, inferno).

Usage::

    python scripts/profile_cell.py e2e.fig6_npb_cell
    python scripts/profile_cell.py e2e.decentralized_50vm --quick \
        --top 40 --collapsed /tmp/decent.folded
    REPRO_SCHEDULER=credit2 python scripts/profile_cell.py e2e.fig6_npb_cell

Cells are named ``module.function`` exactly as in ``BENCH_sim.json``
(``e2e.fig6_npb_cell`` is ``benchmarks/perf/e2e_bench.py::fig6_npb_cell``);
``--list`` enumerates everything available.
"""

from __future__ import annotations

import argparse
import cProfile
import importlib.util
import io
import pstats
import sys
from collections import Counter
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
PERF_DIR = REPO_ROOT / "benchmarks" / "perf"

if importlib.util.find_spec("repro") is None:  # uninstalled checkout
    sys.path.insert(0, str(REPO_ROOT / "src"))

#: Bench modules whose public functions are profile targets, keyed by
#: the prefix used in BENCH_sim.json bench names.
MODULES = {
    "engine": "engine_bench",
    "rng": "rng_bench",
    "e2e": "e2e_bench",
    "tracelog": "tracelog_bench",
}


def _load(module_name: str):
    path = PERF_DIR / f"{module_name}.py"
    spec = importlib.util.spec_from_file_location(f"perf_{module_name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _cells() -> dict[str, object]:
    cells: dict[str, object] = {}
    for prefix, module_name in MODULES.items():
        module = _load(module_name)
        for name in dir(module):
            if name.startswith("_"):
                continue
            fn = getattr(module, name)
            if callable(fn) and getattr(fn, "__module__", "").startswith("perf_"):
                cells[f"{prefix}.{name}"] = fn
    return cells


def _resolve_kwargs(fn, quick: bool) -> dict:
    """Pass ``quick=`` only to cells that take it (engine/rng cells size
    themselves by event counts instead)."""
    import inspect

    params = inspect.signature(fn).parameters
    return {"quick": quick} if "quick" in params else {}


def _profile_table(fn, kwargs: dict, top: int, sort: str) -> None:
    profiler = cProfile.Profile()
    profiler.enable()
    fn(**kwargs)
    profiler.disable()
    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    stats.strip_dirs().sort_stats(sort).print_stats(top)
    print(stream.getvalue())


def _sample_collapsed(fn, kwargs: dict, out: Path, hz: int) -> None:
    """Wall-clock sampler: SIGPROF fires ``hz`` times a second and folds
    the current Python stack into a collapsed-stack counter."""
    import signal

    counts: Counter[str] = Counter()
    interval = 1.0 / hz

    def _sample(signum, frame):
        frames = []
        while frame is not None:
            code = frame.f_code
            frames.append(f"{Path(code.co_filename).name}:{code.co_name}")
            frame = frame.f_back
        counts[";".join(reversed(frames))] += 1

    previous = signal.signal(signal.SIGPROF, _sample)
    signal.setitimer(signal.ITIMER_PROF, interval, interval)
    try:
        fn(**kwargs)
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, previous)

    lines = [f"{stack} {count}" for stack, count in counts.most_common()]
    out.write_text("\n".join(lines) + "\n")
    print(f"wrote {len(counts)} collapsed stacks ({sum(counts.values())} "
          f"samples @ {hz} Hz) to {out}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("cell", nargs="?", help="cell name, e.g. e2e.fig6_npb_cell")
    parser.add_argument("--list", action="store_true", help="list available cells")
    parser.add_argument("--quick", action="store_true", help="CI-sized run")
    parser.add_argument("--top", type=int, default=25, help="table rows (default 25)")
    parser.add_argument("--sort", default="cumulative",
                        choices=["cumulative", "tottime", "calls"],
                        help="table sort key (default cumulative)")
    parser.add_argument("--collapsed", type=Path, metavar="FILE",
                        help="also write collapsed stacks for flamegraph tools")
    parser.add_argument("--hz", type=int, default=997,
                        help="sampling rate for --collapsed (default 997)")
    args = parser.parse_args(argv)

    cells = _cells()
    if args.list or not args.cell:
        for name in sorted(cells):
            print(name)
        return 0
    if args.cell not in cells:
        print(f"error: unknown cell {args.cell!r} (try --list)", file=sys.stderr)
        return 2
    fn = cells[args.cell]
    kwargs = _resolve_kwargs(fn, args.quick)

    fn(**kwargs)  # warm-up: imports and first-touch allocations
    _profile_table(fn, kwargs, args.top, args.sort)
    if args.collapsed:
        _sample_collapsed(fn, kwargs, args.collapsed, args.hz)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
