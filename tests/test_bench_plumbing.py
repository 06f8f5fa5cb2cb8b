"""Tests for the benchmark suite's shared plumbing (no long runs)."""

import importlib.util
import pathlib


def _load_bench_conftest():
    path = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "conftest.py"
    spec = importlib.util.spec_from_file_location("bench_conftest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_work_scale_defaults_to_one(monkeypatch):
    module = _load_bench_conftest()
    monkeypatch.delenv("REPRO_BENCH_SCALE", raising=False)
    assert module.work_scale() == 1.0


def test_work_scale_reads_env(monkeypatch):
    module = _load_bench_conftest()
    monkeypatch.setenv("REPRO_BENCH_SCALE", "0.25")
    assert module.work_scale() == 0.25


def test_every_paper_artifact_has_a_bench():
    bench_dir = pathlib.Path(__file__).resolve().parents[1] / "benchmarks"
    names = {p.stem for p in bench_dir.glob("test_*.py")}
    expected = {
        "test_table1_channel",
        "test_table2_quiescence",
        "test_table3_freeze",
        "test_fig4_libxl",
        "test_fig5_hotplug",
        "test_fig6_npb_4vcpu",
        "test_fig7_npb_8vcpu",
        "test_fig8_trace",
        "test_fig9_waiting",
        "test_fig10_npb_ipis",
        "test_fig11_parsec_4vcpu",
        "test_fig12_parsec_8vcpu",
        "test_fig13_parsec_ipis",
        "test_fig14_apache",
    }
    assert expected <= names, expected - names

