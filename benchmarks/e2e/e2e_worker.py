"""Workload process of the end-to-end benchmark.

``run.py`` starts one of these per workload, one at a time, in a fresh
interpreter whose ``PYTHONPATH`` is the checkout's ``src``::

    python benchmarks/e2e/e2e_worker.py --workload npb_fig6 --seed 0 \\
        --seconds 30 --mode measure|trace|pool [--trace-dir DIR]

* ``measure`` runs whole rounds of cells, closed loop, until ``--seconds``
  have passed, sampling a fixed reference kernel while each cell runs;
* ``trace`` runs the workload's fixed number of rounds
  (``Workload.trace_rounds``), each cell once untraced and once under
  :mod:`e2e_spans`;
* ``pool`` runs every cell of the workload's pool once, for
  ``run.py --update-expected``.

The last line of stdout is one JSON object with the per-cell records.
"""

from __future__ import annotations

import argparse
import heapq
import importlib
import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

from e2e_cells import WORKLOADS, Cell, execute

#: Seconds the reference kernel is taken to last.  Traced cells and
#: set-up probes are normalized as
#: ``raw_s * REF_NOMINAL_S / mean(reference before, reference after)``.
REF_NOMINAL_S = 0.035
REF_ITEMS = 40_000
#: Measured cells are normalized by short runs of the same kernel taken
#: while the cell runs (``run_sampled``): host speed drifts within a
#: cell, so samples at its two ends miss much of it.
SAMPLE_ITEMS = 1_000
SAMPLE_NOMINAL_S = REF_NOMINAL_S * SAMPLE_ITEMS / REF_ITEMS
SAMPLE_EVERY_S = 0.025
#: A cell still running after this many seconds fails.
CELL_TIMEOUT_S = 60
#: Raw spans kept for the Chrome trace of a workload's first cell.
RAW_SPAN_LIMIT = 20_000


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int):
        self.key = key
        self.value = value


def reference_kernel(items: int = REF_ITEMS) -> int:
    """Fixed interpreter-bound work shaped like an event loop.

    heapq push/pop of ``(time, seq, slotted object)`` tuples plus dict
    writes.  It lives in the benchmark, so no change to the simulator can
    move it: its time tracks only how fast the host runs Python now.
    """
    heap: list = []
    table: dict = {}
    push, pop = heapq.heappush, heapq.heappop
    for i in range(items):
        push(heap, ((i * 7919) % 10007 + i, i, _Item(i & 1023, i)))
        if len(heap) > 256:
            _, seq, item = pop(heap)
            table[item.key] = seq
    while heap:
        _, seq, item = pop(heap)
        table[item.key] = seq
    return len(table)


def time_reference() -> float:
    start = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - start


def normalize(raw_s: float, ref_before: float, ref_after: float) -> float:
    return raw_s * REF_NOMINAL_S * 2 / (ref_before + ref_after)


class CellTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise CellTimeout(f"cell ran longer than {CELL_TIMEOUT_S}s")


def run_one(cell: Cell, tracer=None) -> dict:
    """Run one cell (as a traced root span when ``tracer`` is given)."""
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(CELL_TIMEOUT_S)
    start = time.perf_counter()
    try:
        run = tracer.root(execute, cell) if tracer is not None else execute(cell)
    except Exception as exc:  # a failing cell is reported, not fatal
        return {"key": cell.key, "error": f"{type(exc).__name__}: {exc}"}
    finally:
        signal.alarm(0)
    raw_s = time.perf_counter() - start
    return {
        "key": cell.key,
        "args": cell.args(),
        "raw_s": raw_s,
        "sim_s": run.sim_ns / 1e9,
        "digest": run.digest,
        "outputs": run.outputs,
    }


_samples: list[float] = []


def _sample(signum=None, frame=None) -> None:
    start = time.perf_counter()
    reference_kernel(SAMPLE_ITEMS)
    _samples.append(time.perf_counter() - start)


def run_sampled(cell: Cell) -> dict:
    """Run one cell while sampling host speed, and normalize its time.

    Every ``SAMPLE_EVERY_S`` of process CPU time, SIGPROF runs a short
    reference kernel and times it.  The cell's raw time excludes the
    samples; its normalized time is that, times ``SAMPLE_NOMINAL_S`` over
    their mean.  One more sample right after the cell makes sure there is
    at least one.
    """
    _samples.clear()
    signal.signal(signal.SIGPROF, _sample)
    signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
    try:
        record = run_one(cell)
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0)
    in_cell_s = sum(_samples)
    _sample()
    if "raw_s" in record:
        record["raw_s"] -= in_cell_s
        record["norm_s"] = record["raw_s"] * SAMPLE_NOMINAL_S / statistics.fmean(_samples)
    record["speed_samples"] = len(_samples)
    return record


def measure(workload: str, seed: int, seconds: float) -> list[dict]:
    records = []
    start = time.perf_counter()
    for index, cells in enumerate(WORKLOADS[workload].rounds(seed)):
        for cell in cells:
            record = run_sampled(cell)
            record["round"] = index
            records.append(record)
        if time.perf_counter() - start >= seconds:
            break
    return records


def trace(workload: str, seed: int, trace_dir: Path) -> tuple[list[dict], dict]:
    from e2e_spans import LayerTotals, SpanTracer, chrome_trace, tracing

    totals = LayerTotals()
    records = []
    rounds = WORKLOADS[workload].rounds(seed)
    for index in range(WORKLOADS[workload].trace_rounds):
        for cell in next(rounds):
            first = not records
            ref0 = time_reference()
            record = run_one(cell)
            ref1 = time_reference()
            tracer = SpanTracer(raw_limit=RAW_SPAN_LIMIT if first else 0)
            with tracing(tracer):
                traced = run_one(cell, tracer)
            ref2 = time_reference()
            record["round"] = index
            if "raw_s" in record and "raw_s" in traced:
                record["norm_s"] = normalize(record["raw_s"], ref0, ref1)
                record["traced_norm_s"] = normalize(traced["raw_s"], ref1, ref2)
                record["traced_digest"] = traced["digest"]
                totals.add(tracer, REF_NOMINAL_S * 2 / (ref1 + ref2) / 1e9)
            else:
                record.setdefault("error", traced.get("error"))
            if first:
                path = trace_dir / f"{workload}.spans.json"
                path.write_text(json.dumps(chrome_trace(tracer, cell.key)))
            records.append(record)
    return records, totals.to_dict()


def pool(workload: str) -> list[dict]:
    return [run_one(cell) for cell in WORKLOADS[workload].pool()]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("measure", "trace", "pool"), default="measure")
    parser.add_argument("--trace-dir", type=Path)
    parser.add_argument("--src", type=Path, required=True, help="the checkout's src directory")
    args = parser.parse_args(argv)

    import numpy

    repro = importlib.import_module("repro")
    if args.src.resolve() not in Path(repro.__file__).resolve().parents:
        print(f"repro imported from {repro.__file__}, not from {args.src}", file=sys.stderr)
        return 2
    # Pay imports and first-call costs before anything is timed.
    importlib.import_module(WORKLOADS[args.workload].entry_module)
    for _ in range(3):
        time_reference()

    output: dict = {"workload": args.workload, "mode": args.mode}
    if args.mode == "measure":
        output["cells"] = measure(args.workload, args.seed, args.seconds)
    elif args.mode == "trace":
        args.trace_dir.mkdir(parents=True, exist_ok=True)
        output["cells"], output["layers"] = trace(args.workload, args.seed, args.trace_dir)
    else:
        output["cells"] = pool(args.workload)
    output["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    output["versions"] = {"python": sys.version.split()[0], "numpy": numpy.__version__}
    print(json.dumps(output, allow_nan=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
