"""Measurement infrastructure: counters, time-in-state accounting, latency
reservoirs and report formatting for the experiment harness."""

from repro.metrics.collectors import Counter, LatencyReservoir, StateTimer
from repro.metrics.ascii import cdf_plot, hbar_chart, step_trace
from repro.metrics.report import Table

__all__ = [
    "Counter",
    "LatencyReservoir",
    "StateTimer",
    "Table",
    "cdf_plot",
    "hbar_chart",
    "step_trace",
]
