"""Unit tests for repro.units."""

from repro.units import MS, SEC, US


def test_constants_are_consistent():
    assert US == 1_000
    assert MS == 1_000 * US
    assert SEC == 1_000 * MS
