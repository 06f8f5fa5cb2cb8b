#!/usr/bin/env python3
"""End-to-end benchmark of the vScale simulator.

Usage (from the root of a checkout)::

    python benchmarks/e2e/run.py                         # all workloads, seed 0
    python benchmarks/e2e/run.py --workload npb_fig6 --seed 3 --seconds 30
    python benchmarks/e2e/run.py --trace 1               # per-layer metrics
    python benchmarks/e2e/run.py --json report.json      # full report
    python benchmarks/e2e/run.py --update-expected       # after a model change

Each workload runs in its own fresh interpreter, one at a time, with the
``REPRO_*`` variables stripped so the simulator keeps its defaults.  The
cells of a workload run as a closed loop; each cell's result digest is
checked against ``expected/<workload>.json``.  Host times are normalized
by a reference kernel sampled while each cell runs (see ``e2e_worker.py``).

Output: one ``<workload> <metric> <value> <unit>`` line per metric,
``#`` lines with raw seconds and model outputs, and as the last line one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit status is 0 only when every cell ran and matched its digest.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
EXPECTED = HERE / "expected"
sys.path.insert(0, str(HERE))

from e2e_cells import WORKLOADS, model_report  # noqa: E402
from e2e_spans import LayerTotals, layer_metrics  # noqa: E402
from e2e_worker import (  # noqa: E402
    CELL_TIMEOUT_S, REF_NOMINAL_S, SAMPLE_EVERY_S, SAMPLE_NOMINAL_S, normalize, time_reference,
)

SETUP_PROBES = 15
#: Seconds a worker may take to start and import before its first cell.
WORKER_START_S = 60
PROBE = "import sys, time; t = time.perf_counter(); import {}; print(time.perf_counter() - t)"


def child_env() -> tuple[dict, list[str]]:
    """Environment for child interpreters, and the REPRO_* names removed."""
    stripped = sorted(k for k in os.environ if k.startswith("REPRO_"))
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    # Bytecode is cached as usual, so set-up probes time a warm import
    # whether or not the checkout's src already holds __pycache__.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env, stripped


def setup_seconds(module: str, env: dict) -> list[float]:
    """Normalized import time of ``module`` in fresh interpreters.

    An untimed first probe writes any bytecode the checkout lacks.
    """

    def probe() -> float:
        out = subprocess.run(
            [sys.executable, "-c", PROBE.format(module)],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        )
        return float(out.stdout.split()[-1])

    probe()
    samples = []
    for _ in range(SETUP_PROBES):
        before = time_reference()
        raw_s = probe()
        samples.append(normalize(raw_s, before, time_reference()))
    return samples


def worker_timeout(workload: str, mode: str, seconds: float) -> float:
    """Backstop for one worker process, sized from the work it is given.

    A hung cell is stopped by the worker's own ``CELL_TIMEOUT_S`` alarm and
    counted as failed; this limit only catches a worker stuck outside any
    cell.  A measuring worker overruns ``seconds`` by at most the rest of
    its last round; a traced one runs each cell of its rounds twice.
    """
    w = WORKLOADS[workload]
    round_s = w.round_size * CELL_TIMEOUT_S
    if mode == "measure":
        return WORKER_START_S + seconds + round_s
    if mode == "trace":
        return WORKER_START_S + 2 * w.trace_rounds * round_s
    return WORKER_START_S + len(w.pool()) * CELL_TIMEOUT_S


def run_worker(workload: str, mode: str, args, env: dict) -> dict:
    cmd = [
        sys.executable, str(HERE / "e2e_worker.py"),
        "--workload", workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--mode", mode, "--trace-dir", str(args.trace_dir), "--src", str(ROOT / "src"),
    ]
    timeout = worker_timeout(workload, mode, args.seconds)
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def load_expected(workload: str) -> dict:
    path = EXPECTED / f"{workload}.json"
    return json.loads(path.read_text()) if path.exists() else {}


def check_cells(cells: list[dict], expected: dict) -> list[dict]:
    """Mark each cell failed when it raised or its digest is not the expected one."""
    for cell in cells:
        if "error" in cell:
            cell["failed"] = cell["error"]
        elif expected.get(cell["key"]) != cell["digest"]:
            cell["failed"] = "digest mismatch" if cell["key"] in expected else "no expected digest"
        elif cell.get("traced_digest", cell["digest"]) != cell["digest"]:
            cell["failed"] = "traced digest differs from untraced"
    return cells


def quartile3(values: list[float]) -> float:
    return statistics.quantiles(values, n=4)[2] if len(values) > 1 else values[0]


def e2e_metrics(cells: list[dict], rss_kb: int, setup: list[float]) -> dict:
    """name -> (value, unit, n) for the untraced run, after check_cells."""
    timed = [c for c in cells if "norm_s" in c]
    norm = [c["norm_s"] for c in timed]
    sim = sum(c["sim_s"] for c in timed)
    ok = sum("failed" not in c for c in cells)
    return {
        "sim_rate": (sim / sum(norm), "s/s", len(norm)),
        "cell_s.p50": (statistics.median(norm), "s", len(norm)),
        "cell_s.p75": (quartile3(norm), "s", len(norm)),
        "peak_rss_mb": (rss_kb / 1024, "MB", 1),
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "ok_ratio": (ok / len(cells), "ratio", len(cells)),
    }


def trace_metrics(cells: list[dict], layers: dict) -> dict:
    timed = [c for c in cells if "traced_norm_s" in c]
    outputs = [c["outputs"] for c in timed]
    metrics = layer_metrics(
        LayerTotals.from_dict(layers),
        sim_s=sum(c["sim_s"] for c in timed),
        untraced_s=sum(c["norm_s"] for c in timed),
        traced_s=sum(c["traced_norm_s"] for c in timed),
        requests=sum(o.get("sent", 0) for o in outputs),
        drops=sum(o.get("drops", 0) for o in outputs),
    )
    return {name: (value, unit, len(timed)) for name, (value, unit) in metrics.items()}


def model_lines(workload: str, cells: list[dict]) -> list[str]:
    first = [(c["args"], c["outputs"]) for c in cells if c.get("round") == 0 and "outputs" in c]
    return model_report(workload, first) if first else []


def run_workload(workload: str, args, env: dict) -> dict:
    mode = "trace" if args.trace else "measure"
    try:
        setup = [] if args.trace else setup_seconds(WORKLOADS[workload].entry_module, env)
        output = run_worker(workload, mode, args, env)
    except (RuntimeError, ValueError, subprocess.SubprocessError) as exc:
        print(f"# {workload} failed: {exc}", file=sys.stderr)
        return {"attempted": 1, "failed": 1, "metrics": {}, "cells": [], "versions": {}}
    cells = check_cells(output["cells"], load_expected(workload))
    if args.trace:
        metrics = trace_metrics(cells, output["layers"])
    else:
        metrics = e2e_metrics(cells, output["peak_rss_kb"], setup)
    failed = [c for c in cells if "failed" in c]
    for cell in failed:
        print(f"# {workload} cell {cell['key']} failed: {cell['failed']}", file=sys.stderr)
    return {
        "attempted": len(cells),
        "failed": len(failed),
        "metrics": metrics,
        "raw": {
            "pass_s": sum(c.get("raw_s", 0.0) for c in cells),
            "setup_s": setup,
        },
        "model": model_lines(workload, cells),
        "layers": output.get("layers"),
        "cells": cells,
        "versions": output["versions"],
    }


def metric_dict(metrics: dict, with_n: bool = False) -> dict:
    """``name -> (value, unit, n)`` as JSON objects."""
    return {
        name: {"value": value, "unit": unit, **({"n": n} if with_n else {})}
        for name, (value, unit, n) in metrics.items()
    }


def print_workload(workload: str, result: dict) -> None:
    for name, (value, unit, n) in result["metrics"].items():
        suffix = f" n={n}" if name.startswith("cell_s.") else ""
        print(f"{workload} {name} {value:.6g} {unit}{suffix}")
    raw = result.get("raw")
    if raw:
        print(f"# {workload} raw pass_s {raw['pass_s']:.3f} s over {result['attempted']} cells")
        if raw["setup_s"]:
            print(f"# {workload} raw setup probes (normalized) {[round(s, 4) for s in raw['setup_s']]}")
    for line in result.get("model", []):
        print(f"# {workload} model: {line}")
    print(
        f"# {workload} cells attempted {result['attempted']} failed {result['failed']} "
        f"failed_ratio {failed_ratio(result):.6g}"
    )


def failed_ratio(result: dict) -> float:
    return result["failed"] / result["attempted"]


def write_layers(trace_dir: Path, results: dict, seed: int) -> None:
    """Merge this run's per-layer results into ``trace_dir/layers.json``."""
    path = trace_dir / "layers.json"
    try:
        merged = json.loads(path.read_text())
    except (FileNotFoundError, json.JSONDecodeError):
        merged = {}
    for workload, result in results.items():
        merged[workload] = {
            "seed": seed,
            "cells": result["attempted"],
            "metrics": metric_dict(result["metrics"]),
            "totals": result.get("layers"),
        }
    trace_dir.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(merged, indent=2, sort_keys=True) + "\n")


def git_commit() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def write_report(path: Path, args, results: dict, stripped: list[str]) -> None:
    versions = next((r["versions"] for r in results.values() if r["versions"]), {})
    report = {
        "context": {
            "python": platform.python_version(),
            "numpy": versions.get("numpy"),
            "nproc": os.cpu_count(),
            "platform": platform.platform(),
            "git_commit": git_commit(),
            "stripped_env": stripped,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "ref_nominal_s": REF_NOMINAL_S,
            "sample_nominal_s": SAMPLE_NOMINAL_S,
            "sample_every_s": SAMPLE_EVERY_S,
        },
        "workloads": {
            workload: {
                "attempted": r["attempted"],
                "failed": r["failed"],
                "failed_ratio": failed_ratio(r),
                "metrics": metric_dict(r["metrics"], with_n=True),
                "raw": r.get("raw"),
                "model": r.get("model"),
                "cells": r["cells"],
            }
            for workload, r in results.items()
        },
    }
    path.write_text(json.dumps(report, indent=2) + "\n")


def update_expected(workloads: list[str], args, env: dict) -> int:
    for workload in workloads:
        output = run_worker(workload, "pool", args, env)
        errors = [c for c in output["cells"] if "error" in c]
        if errors:
            print(f"{workload}: {len(errors)} cells raised; expected digests not written", file=sys.stderr)
            return 1
        digests = {c["key"]: c["digest"] for c in output["cells"]}
        EXPECTED.mkdir(parents=True, exist_ok=True)
        path = EXPECTED / f"{workload}.json"
        path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(digests)} digests to {path}")
    return 0


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", action="append", choices=sorted(WORKLOADS),
        help="workload to run (repeatable; default: all)",
    )
    parser.add_argument("--seed", type=int, default=0, help="workload seed (default 0)")
    parser.add_argument(
        "--seconds", type=float, default=30.0,
        help="closed-loop run length per workload (the traced run has fixed rounds)",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0,
        help="1: run traced and report per-layer metrics instead",
    )
    parser.add_argument("--trace-dir", type=Path, default=HERE / "out", help="traced-run output")
    parser.add_argument("--json", type=Path, help="write the full report here")
    parser.add_argument(
        "--update-expected", action="store_true",
        help="rewrite the expected digests (only after an intended model change)",
    )
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no simulator sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    args.trace_dir = args.trace_dir.resolve()
    workloads = list(dict.fromkeys(args.workload or WORKLOADS))
    env, stripped = child_env()
    if args.update_expected:
        return update_expected(workloads, args, env)

    for _ in range(3):
        time_reference()  # warm the reference kernel used for set-up probes
    results = {}
    for workload in workloads:
        results[workload] = run_workload(workload, args, env)
        print_workload(workload, results[workload])
    if args.trace:
        write_layers(args.trace_dir, results, args.seed)
    if args.json:
        write_report(args.json, args, results, stripped)

    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    if len(workloads) == 1:
        metrics = metric_dict(results[workloads[0]]["metrics"])
    else:
        metrics = {w: metric_dict(r["metrics"]) for w, r in results.items()}
    print(json.dumps(
        {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    ))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
