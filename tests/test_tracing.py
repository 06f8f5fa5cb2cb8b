"""End-to-end tests for the wired-in tracer."""

from repro.core.balancer import VScaleBalancer
from repro.guest.kernel import GuestKernel
from repro.hypervisor.config import HostConfig
from repro.hypervisor.machine import Machine
from repro.sim.trace import Tracer
from repro.units import MS, SEC
from tests.conftest import busy


def traced_machine(categories, pcpus=2):
    tracer = Tracer(categories)
    machine = Machine(HostConfig(pcpus=pcpus), seed=1, tracer=tracer)
    domain = machine.create_domain("vm", vcpus=2)
    kernel = GuestKernel(domain)
    return machine, kernel, tracer


def test_sched_events_recorded():
    machine, kernel, tracer = traced_machine(["sched"])
    kernel.spawn(busy(100 * MS), "w")
    machine.start()
    machine.run(until=500 * MS)
    runs = tracer.count(category="sched", event="run")
    stops = tracer.count(category="sched", event="stop")
    assert runs >= 1
    assert stops >= 1
    assert abs(runs - stops) <= 2  # every run eventually stops


def test_irq_events_carry_delay():
    machine, kernel, tracer = traced_machine(["irq"])
    kernel.spawn(busy(1 * SEC), "w", pinned_to=0)
    machine.start()
    machine.run(until=10 * MS)
    channel = kernel.domain.new_event_channel("nic", bound_vcpu=0)
    channel.handler = lambda p: None
    channel.post("x")
    machine.run(until=machine.sim.now + 10 * MS)
    posts = list(tracer.select(category="irq", event="post"))
    delivers = list(tracer.select(category="irq", event="deliver"))
    assert posts and delivers
    assert delivers[-1].details["delay_ns"] >= 0
    assert delivers[-1].details["kind"] == "evtchn"


def test_vscale_events_recorded():
    machine, kernel, tracer = traced_machine(["vscale"])
    for index in range(2):
        kernel.spawn(busy(5 * SEC), f"w{index}")
    machine.start()
    machine.run(until=50 * MS)
    balancer = VScaleBalancer(kernel)
    balancer.freeze(1)
    machine.run(until=machine.sim.now + 50 * MS)
    balancer.unfreeze(1)
    machine.run(until=machine.sim.now + 50 * MS)
    assert tracer.count(category="vscale", event="freeze_mark") == 1
    assert tracer.count(category="vscale", event="unfreeze") == 1


def test_guest_migration_events():
    machine, kernel, tracer = traced_machine(["guest"])
    for index in range(4):
        kernel.spawn(busy(2 * SEC), f"w{index}")
    machine.start()
    machine.run(until=200 * MS)
    balancer = VScaleBalancer(kernel)
    balancer.freeze(1)
    machine.run(until=machine.sim.now + 100 * MS)
    migrations = list(tracer.select(category="guest", event="migrate"))
    assert migrations
    assert all(m.details["src"] != m.details["dst"] for m in migrations)


def test_default_machine_traces_nothing(monkeypatch):
    # The sanitizer deliberately swaps NULL_TRACER for a ring tracer so
    # violations carry context; this test is about the *default* machine.
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    machine = Machine(HostConfig(pcpus=1), seed=1)
    domain = machine.create_domain("vm", vcpus=1)
    kernel = GuestKernel(domain)
    kernel.spawn(busy(10 * MS), "w")
    machine.start()
    machine.run(until=100 * MS)
    assert machine.tracer.records == []
