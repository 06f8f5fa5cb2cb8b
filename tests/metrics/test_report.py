"""Tests for table rendering."""

import pytest

from repro.metrics.report import Table


def test_table_renders_header_and_rows():
    table = Table("Demo", ["name", "value"])
    table.add_row("alpha", 1.5)
    table.add_row("beta", 2)
    text = table.render()
    assert "Demo" in text
    assert "alpha" in text
    assert "1.500" in text
    assert "beta" in text


def test_table_rejects_wrong_arity():
    table = Table("T", ["a", "b"])
    with pytest.raises(ValueError):
        table.add_row("only-one")


def test_table_alignment_is_consistent():
    table = Table("T", ["col"])
    table.add_row("short")
    table.add_row("a-much-longer-cell")
    lines = table.render().splitlines()
    widths = {len(line) for line in lines[2:]}
    assert len(widths) == 1
