"""Tests for the experiment runner CLI."""

import re
from pathlib import Path

import pytest

from repro.experiments.runner import EXPERIMENTS, main
from repro.sanitize import Sanitizer
from repro.tracelog import capture as capture_mod
from repro.tracelog.codec import load

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


def test_fig5_via_runner(capsys):
    assert main(["fig5", "--scale", "0.2"]) == 0
    out = capsys.readouterr().out
    assert "v3.14.15" in out


@pytest.mark.parametrize("mode", ["trace", "sanitize"])
def test_rerun_under_trace_or_sanitizer_runs_its_cell(
    mode, tmp_path, monkeypatch, capsys
):
    """A rerun with tracing or the sanitizer on executes its cell again.

    A replayed result would write no trace and arm no checker, yet print
    the same report as a real pass.
    """
    # Keep anything a run might store on disk under tmp_path, so the
    # first run starts cold.
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    args = ["table2", "--scale", "0.01", "--jobs", "1"]
    assert main(args) == 0
    plain = capsys.readouterr().out

    if mode == "trace":
        trace = tmp_path / "t.rtl"
        monkeypatch.setenv("REPRO_TRACE", str(trace))
        try:
            assert main(args) == 0
        finally:
            capture_mod._close_env_capture()
        _, records = load(str(trace))
        assert records
    else:
        installed = []
        install = Sanitizer.install

        def counting_install(self):
            installed.append(self)
            return install(self)

        monkeypatch.setattr(Sanitizer, "install", counting_install)
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert main(args) == 0
        assert installed
        assert sum(sum(s.stats.values()) for s in installed) > 0
    assert capsys.readouterr().out == plain


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
