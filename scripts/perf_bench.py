#!/usr/bin/env python
"""Time the simulation core and representative experiment cells.

Runs the ``benchmarks/perf/`` suite — engine-throughput microbenchmarks,
RNG-path microbenchmarks, end-to-end experiment cells, and a per-object
memory census — and writes the results to ``BENCH_sim.json`` so the
repo's performance trajectory is tracked commit over commit.

Usage::

    python scripts/perf_bench.py                                # full run
    python scripts/perf_bench.py --quick                        # CI smoke
    python scripts/perf_bench.py \
        --check-against BENCH_sim.json --max-regression 0.30    # gate

An installed ``repro`` (``pip install -e .``) is used when present;
otherwise the checkout's own ``src/`` is put on ``sys.path``.

The bench modules use only public APIs, so the same script can time an
older revision of the simulator: point ``PYTHONPATH`` at that revision's
``src`` (e.g. a ``git worktree`` of the previous commit) and pass
``--label before``.  ``--merge-baseline before.json`` then folds such a
run into the output as the ``before`` column, with speedups computed.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import platform
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
PERF_DIR = REPO_ROOT / "benchmarks" / "perf"

if importlib.util.find_spec("repro") is None:  # uninstalled checkout
    sys.path.insert(0, str(REPO_ROOT / "src"))


def _load(module_name: str):
    path = PERF_DIR / f"{module_name}.py"
    spec = importlib.util.spec_from_file_location(f"perf_{module_name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_json(path: Path, role: str) -> dict:
    """Read a results/reference JSON; exit with a one-line error if it is
    missing or corrupt instead of dumping a traceback."""
    try:
        return json.loads(path.read_text())
    except FileNotFoundError:
        raise SystemExit(f"error: {role} file not found: {path}")
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise SystemExit(f"error: {role} file {path} is corrupt: {exc}")


def _time_best_of(fn, args: dict, repeats: int) -> tuple[float, float]:
    """(best seconds, items) over ``repeats`` runs, after one warm-up."""
    fn(**args)  # warm-up: imports, first-touch allocations
    best = float("inf")
    items = 0.0
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn(**args)
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
        if isinstance(result, (int, float)):
            items = float(result)
    return best, items


def run_suite(quick: bool) -> dict:
    engine = _load("engine_bench")
    rng = _load("rng_bench")
    e2e = _load("e2e_bench")
    tracelog = _load("tracelog_bench")
    memory = _load("memory_bench")

    scale = 4 if quick else 1
    # Best-of-3 even on the quick lane: the smallest e2e cells run in a
    # few ms, where a single sample can swing >30% on a shared runner and
    # trip the regression gate on noise alone.
    repeats = 3
    benches = [
        # (name, fn, kwargs, items are events -> report events/s)
        ("engine.tick_chains", engine.tick_chains, {"events": 200_000 // scale}),
        ("engine.deep_queue", engine.deep_queue, {"events": 30_000 // scale}),
        ("engine.cancel_churn", engine.cancel_churn, {"events": 40_000 // scale}),
        ("engine.peek_monitor", engine.peek_monitor, {"events": 20_000 // scale}),
        ("rng.fault_decisions", rng.fault_decisions, {"calls": 100_000 // scale}),
        ("rng.cost_jitter", rng.cost_jitter, {"calls": 100_000 // scale}),
        ("e2e.fig6_npb_cell", e2e.fig6_npb_cell, {"quick": quick}),
        ("e2e.faults_cell", e2e.faults_cell, {"quick": quick}),
        ("e2e.decentralized_50vm", e2e.decentralized_50vm, {"quick": quick}),
        ("e2e.fig4_dom0_sweep", e2e.fig4_dom0_sweep, {"quick": quick}),
        ("tracelog.fig6_traced_cell", tracelog.fig6_traced_cell, {"quick": quick}),
    ]

    results: dict[str, dict] = {}
    for name, fn, kwargs in benches:
        seconds, items = _time_best_of(fn, kwargs, repeats)
        entry = {"seconds": round(seconds, 6)}
        if items and name.split(".")[0] in ("engine", "rng"):
            entry["per_second"] = round(items / seconds)
        results[name] = entry
        print(f"  {name:<28} {seconds * 1e3:9.2f} ms"
              + (f"  ({entry['per_second']:,}/s)" if "per_second" in entry else ""))

    # Tracing overhead: interleaved traced/untraced pairs of the same
    # cell, best-of each, so machine noise cancels instead of showing
    # up as tracing cost.
    pair = tracelog.trace_overhead(quick)
    results["tracelog.fig6_traced_cell"]["overhead"] = pair["overhead"]
    print(f"  {'tracelog overhead':<28} {pair['overhead']:8.1%} vs untraced fig6 "
          f"({pair['untraced_s'] * 1e3:.0f} -> {pair['traced_s'] * 1e3:.0f} ms)")

    print("  memory census ...")
    results["memory.objects"] = {
        key: round(value, 1)
        for key, value in memory.object_sizes(5_000 if quick else 20_000).items()
    }
    return results


def check_trace_overhead(current: dict, limit: float) -> int:
    """Gate the tracelog bench's overhead ratio (<10% by default)."""
    entry = current.get("tracelog.fig6_traced_cell") or {}
    overhead = entry.get("overhead")
    if overhead is None:
        return 0
    status = "OK" if overhead <= limit else "FAIL"
    print(f"  tracing overhead {overhead:.1%} (limit {limit:.0%})  {status}")
    if overhead > limit:
        print(f"FAIL: tracing overhead {overhead:.1%} exceeds {limit:.0%} "
              "on the fig6 cell")
        return 1
    return 0


def check_regressions(current: dict, reference_path: Path, limit: float,
                      quick: bool) -> int:
    reference = _load_json(reference_path, "reference")
    # Compare like-for-like: quick runs use smaller workloads, so they gate
    # against the committed "quick" column; full runs against "after" (a
    # merged file) or "benches" (a flat run).
    if quick:
        ref_benches = reference.get("quick") or {}
        if not ref_benches:
            print(f"no 'quick' reference column in {reference_path}; "
                  "nothing to gate against")
            return 0
    else:
        ref_benches = reference.get("after") or reference.get("benches") or {}
    failures = []
    for name, entry in current.items():
        if "seconds" not in entry or name not in ref_benches:
            continue
        ref_seconds = ref_benches[name].get("seconds")
        if not ref_seconds:
            continue
        ratio = entry["seconds"] / ref_seconds
        status = "OK" if ratio <= 1.0 + limit else "REGRESSION"
        print(f"  {name:<28} {ratio:5.2f}x vs reference  {status}")
        if ratio > 1.0 + limit:
            failures.append((name, ratio))
    if failures:
        print(f"FAIL: {len(failures)} bench(es) regressed more than "
              f"{limit:.0%}: " + ", ".join(f"{n} ({r:.2f}x)" for n, r in failures))
        return 1
    print("perf gate passed")
    return 0


def _speedups(baseline: dict, after: dict) -> dict:
    speedup = {}
    for name, entry in after.items():
        if "seconds" in entry and name in baseline and "seconds" in baseline.get(name, {}):
            speedup[name] = round(baseline[name]["seconds"] / entry["seconds"], 2)
    return speedup


def apply_lineage(payload: dict, after: dict, output: Path,
                  label: str | None, baseline_path: Path | None) -> None:
    """Fold a full run into the results file without losing its lineage.

    ``seed_baseline`` is written once — from an explicit
    ``--merge-baseline`` file, or inherited from the existing file (a
    schema-1 file's ``before`` column was the seed measurement) — and
    never overwritten afterwards, so the ``speedup`` column always reads
    against the original seed, not against last week's already-optimized
    run.  The previous ``after`` becomes ``before`` (the run this commit
    improves on), and every recorded full run is appended to ``history``
    so ``--history`` can print the whole trajectory.
    """
    existing: dict = {}
    if output.exists():
        existing = _load_json(output, "results")
    seed = existing.get("seed_baseline") or existing.get("before")
    if baseline_path is not None:
        baseline = _load_json(baseline_path, "baseline")
        if "benches" not in baseline:
            raise SystemExit(
                f"error: baseline file {baseline_path} has no 'benches' column"
            )
        if seed is None:
            seed = baseline["benches"]
        payload["before"] = baseline["benches"]
    elif existing.get("after"):
        payload["before"] = existing["after"]
    if seed is None:
        seed = after  # first ever run: the seed measurement is this run
    payload["seed_baseline"] = seed
    payload["after"] = after
    payload["speedup"] = _speedups(seed, after)
    if "quick" in existing:
        payload["quick"] = existing["quick"]
    history = list(existing.get("history") or [])
    history.append({
        "label": label or f"run-{len(history) + 1}",
        "python": platform.python_version(),
        "seconds": {
            name: entry["seconds"]
            for name, entry in sorted(after.items())
            if "seconds" in entry
        },
    })
    payload["history"] = history


def print_history(path: Path) -> int:
    """Print the per-bench trajectory: seed -> each recorded run."""
    data = _load_json(path, "results")
    seed = data.get("seed_baseline") or data.get("before") or {}
    history = data.get("history") or []
    if not history:
        # Schema-1 file: synthesize one entry from the "after" column.
        after = data.get("after") or data.get("benches") or {}
        history = [{
            "label": data.get("label") or "current",
            "seconds": {n: e["seconds"] for n, e in after.items()
                        if "seconds" in e},
        }]
    names = sorted(
        {n for n, e in seed.items() if "seconds" in e}
        | {n for run in history for n in run.get("seconds", {})}
    )
    labels = [run.get("label", f"run-{i + 1}") for i, run in enumerate(history)]
    print(f"{'bench':<28} {'seed':>10}  " +
          "  ".join(f"{label:>10}" for label in labels) + "  speedup")
    for name in names:
        seed_s = seed.get(name, {}).get("seconds")
        cells = [f"{seed_s * 1e3:8.1f}ms" if seed_s else f"{'-':>10}"]
        last = None
        for run in history:
            seconds = run.get("seconds", {}).get(name)
            if seconds is None:
                cells.append(f"{'-':>10}")
            else:
                cells.append(f"{seconds * 1e3:8.1f}ms")
                last = seconds
        trend = f"{seed_s / last:7.2f}x" if seed_s and last else f"{'-':>8}"
        print(f"{name:<28} " + "  ".join(cells) + f" {trend}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smaller sizes, single repeat (CI smoke lane)")
    parser.add_argument("--output", type=Path, default=None,
                        help="write results JSON here (default: BENCH_sim.json "
                             "at the repo root for full runs; no file for "
                             "--quick unless given)")
    parser.add_argument("--label", default=None,
                        help="free-form tag stored in the output (e.g. 'before')")
    parser.add_argument("--merge-baseline", type=Path, default=None,
                        help="fold a previous run in as the 'before' column")
    parser.add_argument("--record-quick", type=Path, default=None,
                        help="with --quick: store this run as the 'quick' "
                             "reference column inside an existing results "
                             "file (the one CI gates against)")
    parser.add_argument("--check-against", type=Path, default=None,
                        help="compare against a reference JSON and fail on "
                             "regression")
    parser.add_argument("--max-regression", type=float, default=0.30,
                        help="allowed slowdown vs reference (default 0.30)")
    parser.add_argument("--max-trace-overhead", type=float, default=0.10,
                        help="allowed tracing overhead on the fig6 cell "
                             "(default 0.10; gated with --check-against)")
    parser.add_argument("--history", action="store_true",
                        help="print the recorded per-bench trajectory from "
                             "the results file and exit (no benches run)")
    args = parser.parse_args()

    if args.history:
        return print_history(args.output or REPO_ROOT / "BENCH_sim.json")

    print(f"perf_bench: {'quick' if args.quick else 'full'} run, "
          f"python {platform.python_version()}")
    benches = run_suite(args.quick)

    payload: dict = {
        "schema": 2,
        "mode": "quick" if args.quick else "full",
        "python": platform.python_version(),
    }
    if args.label:
        payload["label"] = args.label

    output = args.output
    if output is None and not args.quick:
        output = REPO_ROOT / "BENCH_sim.json"
    if output is not None:
        if args.quick:
            payload["benches"] = benches
        else:
            apply_lineage(payload, benches, output, args.label,
                          args.merge_baseline)
        output.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote {output}")

    if args.record_quick:
        if not args.quick:
            parser.error("--record-quick requires --quick")
        merged = _load_json(args.record_quick, "results")
        merged["quick"] = benches
        args.record_quick.write_text(
            json.dumps(merged, indent=2, sort_keys=True) + "\n"
        )
        print(f"recorded quick reference column in {args.record_quick}")

    if args.check_against:
        rc = check_regressions(benches, args.check_against,
                               args.max_regression, args.quick)
        return rc or check_trace_overhead(benches, args.max_trace_overhead)
    return 0


if __name__ == "__main__":
    sys.exit(main())
