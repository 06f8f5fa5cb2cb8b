"""Tests for the /proc-style introspection views."""

import pytest

from repro.core.balancer import VScaleBalancer
from repro.guest import procfs
from repro.units import MS, SEC
from tests.conftest import StackBuilder, busy


@pytest.fixture
def running_guest():
    builder = StackBuilder(pcpus=4)
    kernel = builder.guest("vm", vcpus=4)
    for index in range(4):
        kernel.spawn(busy(5 * SEC), f"w{index}")
    machine = builder.start()
    machine.run(until=500 * MS)
    return builder, kernel, machine


def test_proc_interrupts_counts_timers(running_guest):
    _, kernel, _ = running_guest
    text = procfs.proc_interrupts(kernel)
    assert "LOC:" in text and "RES:" in text and "EVT:" in text
    assert "CPU0" in text and "CPU3" in text
    # ~500 ticks per busy vCPU at 1000 HZ over 500 ms.
    loc_line = next(line for line in text.splitlines() if "LOC:" in line)
    counts = [int(tok) for tok in loc_line.split() if tok.isdigit()]
    assert all(count > 300 for count in counts)


def test_proc_interrupts_frozen_vcpu_goes_quiet(running_guest):
    _, kernel, machine = running_guest
    balancer = VScaleBalancer(kernel)
    balancer.freeze(3)
    machine.run(until=machine.sim.now + 100 * MS)
    before = procfs.proc_interrupts(kernel)
    machine.run(until=machine.sim.now + 500 * MS)
    after = procfs.proc_interrupts(kernel)

    def loc_counts(text):
        line = next(l for l in text.splitlines() if "LOC:" in l)
        return [int(tok) for tok in line.split() if tok.isdigit()]

    assert loc_counts(after)[3] == loc_counts(before)[3]  # cpu3 stopped
    assert loc_counts(after)[0] > loc_counts(before)[0]   # cpu0 kept ticking


def test_proc_stat_reports_states(running_guest):
    _, kernel, _ = running_guest
    text = procfs.proc_stat(kernel)
    lines = text.splitlines()
    assert lines[0].startswith("cpu ")
    assert len(lines) == 5
    # Dedicated host: busy vCPUs ran ~500ms each, no steal.
    for line in lines[1:]:
        _, run, steal, idle, frozen = line.split()
        assert int(run) > 300
        assert int(frozen) == 0
