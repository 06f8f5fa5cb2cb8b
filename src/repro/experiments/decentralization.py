"""Decentralization experiment: many self-scaling VMs, no dom0 in the loop.

The paper's scalability principle says a scalable design must be
decentralized and bypass dom0 entirely: each VM monitors and reconfigures
*itself* through the vScale channel at microsecond cost, so the management
overhead stays constant per VM as the host grows, whereas a VCPU-Bal-style
centralized manager pays a libxl sweep over every VM per decision.

This experiment boots ``n`` worker VMs, every one running its own daemon,
lets their bursty demands interleave, and reports:

* convergence — how close each VM's CPU consumption lands to its fair
  share over the run;
* responsiveness — the daemons' reconfiguration counts (they all act);
* management cost — total time the host spent on monitoring, compared
  with what a centralized dom0 sweep at the same decision rate would have
  cost (from the Figure 4 cost model).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.daemon import VScaleDaemon
from repro.guest.kernel import GuestKernel
from repro.hypervisor.config import HostConfig
from repro.hypervisor.dom0 import Dom0Load, Dom0Toolstack
from repro.hypervisor.machine import Machine
from repro.metrics.report import Table
from repro.sim.rng import SeedSequenceFactory
from repro.units import MS, SEC
from repro.workloads.synthetic import on_off


@dataclass
class DecentralizationResult:
    vms: int
    duration_ns: int
    #: name -> (consumed_ns, entitled_ns) where the entitlement is
    #: min(demand, fair share): a VM that wants less than its share is
    #: *supposed* to consume only its demand (work conservation hands the
    #: remainder to whoever bursts).
    shares: dict[str, tuple[int, int]] = field(default_factory=dict)
    reconfigurations: dict[str, int] = field(default_factory=dict)
    #: Total monitoring cost actually paid (all channels, all reads), ns.
    channel_cost_ns: int = 0
    #: What centralized libxl sweeps at the same total decision rate would
    #: have cost dom0, ns (sampled from the Figure 4 model).
    centralized_cost_ns: int = 0

    @property
    def worst_share_error(self) -> float:
        """Largest relative deviation from fair share across VMs."""
        worst = 0.0
        for consumed, fair in self.shares.values():
            if fair:
                worst = max(worst, abs(consumed - fair) / fair)
        return worst

    @property
    def monitoring_speedup(self) -> float:
        if self.channel_cost_ns == 0:
            return float("inf")
        return self.centralized_cost_ns / self.channel_cost_ns

    def render(self) -> str:
        table = Table(
            f"Decentralized self-scaling: {self.vms} VMs, every one its own daemon",
            ["VM", "consumed (s)", "fair share (s)", "error", "reconfigs"],
        )
        for name, (consumed, fair) in self.shares.items():
            error = abs(consumed - fair) / fair if fair else 0.0
            table.add_row(
                name,
                consumed / 1e9,
                fair / 1e9,
                f"{error * 100:.1f}%",
                self.reconfigurations.get(name, 0),
            )
        lines = [table.render()]
        lines.append(
            f"monitoring cost: {self.channel_cost_ns / 1e6:.2f}ms decentralized vs "
            f"{self.centralized_cost_ns / 1e6:.2f}ms centralized "
            f"({self.monitoring_speedup:.0f}x)"
        )
        return "\n".join(lines)


def run(
    vms: int = 8,
    pcpus: int = 8,
    vcpus_per_vm: int = 4,
    duration_ns: int = 6 * SEC,
    seed: int = 5,
) -> DecentralizationResult:
    """All-worker host: every VM runs bursty load and its own daemon."""
    if vms < 2:
        raise ValueError("need at least two VMs to contend")
    machine = Machine(HostConfig(pcpus=pcpus), seed=seed)
    seeds = SeedSequenceFactory(seed)
    kernels: list[GuestKernel] = []
    daemons: list[VScaleDaemon] = []
    demands: dict[str, float] = {}
    for index in range(vms):
        domain = machine.create_domain(f"vm{index}", vcpus=vcpus_per_vm, weight=256)
        kernel = GuestKernel(domain)
        rng = seeds.generator(f"load.{index}")
        # Staggered heavy bursts so demand keeps shifting between VMs.
        demand_pcpus = 0.0
        for thread_index in range(vcpus_per_vm):
            busy = int(rng.uniform(400 * MS, 900 * MS))
            idle = int(rng.uniform(200 * MS, 700 * MS))
            kernel.spawn(on_off(kernel, busy, idle), f"burst{thread_index}")
            demand_pcpus += busy / (busy + idle)
        demands[domain.name] = demand_pcpus
        kernels.append(kernel)
    machine.install_vscale()
    for kernel in kernels:
        daemon = VScaleDaemon(kernel)
        daemon.install()
        daemons.append(daemon)
    machine.start()
    machine.run(until=duration_ns)

    result = DecentralizationResult(vms=vms, duration_ns=duration_ns)
    fair = pcpus * duration_ns // vms
    total_reads = 0
    for kernel, daemon in zip(kernels, daemons):
        domain = kernel.domain
        entitled = min(round(demands[domain.name] * duration_ns), fair)
        result.shares[domain.name] = (domain.total_run_ns(machine.sim.now), entitled)
        result.reconfigurations[domain.name] = daemon.reconfigurations
        total_reads += daemon.channel.reads
        result.channel_cost_ns += sum(daemon.channel.read_latency.samples)
    # What the same number of decisions would cost a centralized manager:
    # each decision is one libxl sweep over all VMs.
    toolstack = Dom0Toolstack(seeds.generator("dom0"), load=Dom0Load.IDLE)
    decisions = total_reads // max(1, vms)  # one sweep covers every VM
    for _ in range(min(decisions, 5000)):
        result.centralized_cost_ns += toolstack.sample_read_all_ns(vms)
    if decisions > 5000:
        result.centralized_cost_ns = int(
            result.centralized_cost_ns * decisions / 5000
        )
    return result
