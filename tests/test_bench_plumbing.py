"""Tests for the benchmark suite's shared plumbing (no long runs)."""

import pathlib


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

