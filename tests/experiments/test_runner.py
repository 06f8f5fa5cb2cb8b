"""Tests for the experiment runner CLI."""

import re
from pathlib import Path

import pytest

from repro.experiments.runner import EXPERIMENTS, main

BENCHMARKS = Path(__file__).resolve().parents[2] / "benchmarks"


def test_list_mode(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    for name in EXPERIMENTS:
        assert name in out


def test_unknown_experiment_errors():
    with pytest.raises(SystemExit):
        main(["nonsense"])


def test_no_experiments_errors():
    with pytest.raises(SystemExit):
        main([])


@pytest.mark.parametrize("scale", ["0", "-1", "nan", "inf"])
def test_bad_scale_errors(scale, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["table1", "--scale", scale])
    assert exc.value.code == 2
    assert "--scale: must be a positive number" in capsys.readouterr().err


def test_bad_jobs_errors():
    with pytest.raises(SystemExit):
        main(["table1", "--jobs", "0"])


def test_runs_and_writes_output(tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert (
        main(
            [
                "table1",
                "--scale",
                "0.01",
                "--cache-dir",
                str(tmp_path / "cache"),
                "--out",
                str(out_dir),
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "sys_getvscaleinfo" in out
    written = (out_dir / "table1.txt").read_text()
    assert "sys_getvscaleinfo" in written
    assert (out_dir / "telemetry.json").exists()


def test_fig5_via_runner(tmp_path, capsys):
    assert main(["fig5", "--scale", "0.2", "--cache-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "v3.14.15" in out


def test_no_cache_leaves_no_cache_dir(tmp_path, capsys):
    cache_dir = tmp_path / "cache"
    assert (
        main(
            [
                "table1",
                "--scale",
                "0.01",
                "--no-cache",
                "--cache-dir",
                str(cache_dir),
            ]
        )
        == 0
    )
    err = capsys.readouterr().err
    assert "misses=1" in err
    assert not cache_dir.exists()


def test_warm_cache_rerun_hits(tmp_path, capsys):
    args = ["table1", "--scale", "0.01", "--cache-dir", str(tmp_path / "cache")]
    assert main(args) == 0
    cold = capsys.readouterr()
    assert "hits=0 misses=1" in cold.err
    assert main(args) == 0
    warm = capsys.readouterr()
    assert "hits=1 misses=0" in warm.err
    # Determinism: stdout is byte-identical between cold and warm runs.
    assert warm.out == cold.out


def test_every_experiment_is_registered():
    expected = {
        "table1", "table2", "table3",
        "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
        "fig10", "fig11", "fig12", "fig13", "fig14",
        "variance", "ablations", "faults", "chaos", "generality",
    }
    assert set(EXPERIMENTS) == expected


def test_list_matches_benchmark_inventory():
    """Every tableN/figN benchmark has a runner entry, and vice versa.

    The benchmark files are named ``test_<name>_<slug>.py``; extra
    benchmark suites that aren't single tables/figures (decentralization,
    generality) are exempt, but variance and ablations must be runnable.
    """
    inventory = set()
    for path in BENCHMARKS.glob("test_*.py"):
        match = re.match(r"test_((?:fig|table)\d+)", path.name)
        if match:
            inventory.add(match.group(1))
    registered = {n for n in EXPERIMENTS if re.fullmatch(r"(?:fig|table)\d+", n)}
    assert inventory == registered
    assert {"variance", "ablations"} <= set(EXPERIMENTS)
    assert (BENCHMARKS / "test_variance.py").exists()
    assert (BENCHMARKS / "test_ablations.py").exists()
