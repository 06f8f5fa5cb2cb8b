"""Tests of the end-to-end benchmark itself (not of the simulator).

Run with ``python -m pytest benchmarks/e2e -q``.  Cells here are cut
down (short runs, few VMs) so the file finishes in well under a minute;
the command-line runs use the host workload with ``--seconds 1``, which
is a single round of four cells, and the traced path runs in-process on
one small host cell.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from e2e_cells import WORKLOADS, execute, make_cell
from e2e_spans import LayerTotals, SpanTracer, tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")

SMALL_CELLS = {
    "npb_fig6": make_cell("npb_fig6", app="cg", config="VSCALE", seed=0, work_scale=0.05),
    "apache_rps": make_cell(
        "apache_rps", rate=6000, config="VSCALE", seed=0, duration_ns=100_000_000
    ),
    "host_50vm": make_cell("host_50vm", seed=0, vms=4, duration_ns=300_000_000),
}


def first_rounds(workload: str, seed: int, count: int = 3) -> list:
    return list(itertools.islice(WORKLOADS[workload].rounds(seed), count))


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_cell_lists_are_seeded(workload):
    assert first_rounds(workload, 0) == first_rounds(workload, 0)
    assert first_rounds(workload, 0) != first_rounds(workload, 1)
    expected = json.loads((HERE / "expected" / f"{workload}.json").read_text())
    pool = {cell.key for cell in WORKLOADS[workload].pool()}
    assert pool == set(expected)
    for cells in first_rounds(workload, 7):
        assert {cell.key for cell in cells} <= pool
        # Every grid point once per round.
        assert len(cells) == WORKLOADS[workload].round_size


@pytest.mark.parametrize("workload", sorted(SMALL_CELLS))
def test_tracing_changes_no_result_and_accounts_all_time(workload):
    from repro.sim.engine import Simulator

    cell = SMALL_CELLS[workload]
    untraced = execute(cell)
    tracer = SpanTracer(raw_limit=100)
    original = Simulator.schedule
    with tracing(tracer):
        traced = tracer.root(execute, cell)
    assert Simulator.schedule is original
    assert traced.digest == untraced.digest
    assert traced.sim_ns == untraced.sim_ns

    totals = LayerTotals()
    totals.add(tracer, 1e-9)
    assert sum(totals.events.values()) > 0
    assert abs(sum(totals.self_s.values()) - totals.total_s) <= 0.01 * totals.total_s
    assert len(tracer.raw) == 100


def run_cli(*args: str, root: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "host_50vm", "--seconds", "1", *args],
        cwd=root, capture_output=True, text=True, timeout=120,
    )


def copy_benchmark(root: Path) -> None:
    """The benchmark's own files, as a checkout holds them, under ``root``."""
    shutil.copy(ROOT / "BENCHMARK.json", root)
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, root / path, ignore=shutil.ignore_patterns("__pycache__", "out"))


def metric_lines(stdout: str) -> dict[str, list[str]]:
    """``<workload> <metric> <value> <unit>`` lines, by metric name."""
    lines = [line for line in stdout.splitlines() if line and line[0] not in "#{"]
    return {fields[1]: fields for fields in map(str.split, lines)}


def check_printed(stdout: str, metrics: dict, section: str) -> None:
    """Printed metric lines and the JSON metrics both match BENCHMARK.json."""
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    printed = metric_lines(stdout)
    assert set(printed) == set(declared) == set(metrics)
    for name, fields in printed.items():
        assert NAME.match(name)
        assert fields[0] == "host_50vm" and fields[3] == declared[name]
        assert metrics[name]["unit"] == declared[name]


def test_printed_metrics_match_benchmark_json():
    proc = run_cli("--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 4
    assert result["metrics"]["ok_ratio"]["value"] == 1.0
    check_printed(proc.stdout, result["metrics"], "end_to_end")


def test_traced_metrics_match_benchmark_json(tmp_path, monkeypatch, capsys):
    import e2e_worker
    import run

    small = dataclasses.replace(
        WORKLOADS["host_50vm"], groups=(({"vms": 4, "duration_ns": 300_000_000},),), trace_rounds=1
    )
    monkeypatch.setitem(WORKLOADS, "host_50vm", small)
    cells, layers = e2e_worker.trace("host_50vm", 0, tmp_path)
    assert [c["traced_digest"] for c in cells] == [c["digest"] for c in cells]
    result = {"attempted": len(cells), "failed": 0, "layers": layers}
    result["metrics"] = run.trace_metrics(cells, layers)
    capsys.readouterr()
    run.print_workload("host_50vm", result)
    check_printed(capsys.readouterr().out, run.metric_dict(result["metrics"]), "per_layer")

    run.write_layers(tmp_path, {"host_50vm": result}, seed=0)
    layers_json = json.loads((tmp_path / "layers.json").read_text())
    assert set(layers_json["host_50vm"]["metrics"]) == set(result["metrics"])
    spans = json.loads((tmp_path / "host_50vm.spans.json").read_text())
    assert spans["traceEvents"]


def test_tampered_digest_fails(tmp_path):
    copy_benchmark(tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    path = tmp_path / "benchmarks" / "e2e" / "expected" / "host_50vm.json"
    digests = json.loads(path.read_text())
    path.write_text(json.dumps({key: "0" * 64 for key in digests}))

    proc = run_cli("--trace", "0", root=tmp_path)
    assert proc.returncode != 0
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert not result["correct"]
    assert result["failed"] / result["attempted"] > 0
    assert result["metrics"]["ok_ratio"]["value"] < 1
    counts = next(line for line in proc.stdout.splitlines() if " failed_ratio " in line)
    assert float(counts.split()[-1]) > 0
    assert "digest mismatch" in proc.stderr


def test_refuses_to_run_without_the_simulator(tmp_path):
    copy_benchmark(tmp_path)
    proc = run_cli("--seed", "0", "--trace", "0", root=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
