"""Figure 14: Apache web server performance under httperf load.

A 4-vCPU VM serves a 16 KB file over a 1 GbE link; a client machine drives
it at constant request rates from 1 K to 10 K per second.  Three panels:

* (a) average reply rate — vanilla peaks early and then degrades, pvlock
  avoids the break but peaks below link saturation, vScale approaches it;
* (b) average connection time — dominated by how fast the VM responds to
  the NIC's event-channel interrupt;
* (c) average response time — adds worker wake-up (IPI) latency and
  processing on top.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.setups import ALL_CONFIGS, WARMUP_NS, Config, ScenarioBuilder
from repro.metrics.report import Table
from repro.sim.rng import SeedSequenceFactory
from repro.units import SEC
from repro.workloads.apache import ApacheServer, HttperfClient, HttperfResult

#: Request rates on the paper's x axis (per second).
DEFAULT_RATES = [1000, 2000, 3000, 4000, 5000, 6000, 7000, 8000, 9000, 10000]


@dataclass
class Fig14Result:
    #: (config, rate) -> client measurements.
    points: dict[tuple[Config, int], HttperfResult] = field(default_factory=dict)

    def reply_rate(self, config: Config, rate: int) -> float:
        return self.points[(config, rate)].reply_rate

    def peak_reply_rate(self, config: Config) -> float:
        return max(
            result.reply_rate
            for (cfg, _), result in self.points.items()
            if cfg is config
        )

    def mean_connection_ms(self, config: Config, rate: int) -> float:
        reservoir = self.points[(config, rate)].connection_time
        return reservoir.mean() / 1e6 if len(reservoir) else float("nan")

    def mean_response_ms(self, config: Config, rate: int) -> float:
        reservoir = self.points[(config, rate)].response_time
        return reservoir.mean() / 1e6 if len(reservoir) else float("nan")

    def render(self) -> str:
        table = Table(
            "Figure 14: Apache under httperf (4-vCPU VM, 16KB file, 1GbE)",
            ["config", "req/s", "reply/s", "conn (ms)", "resp (ms)", "drops"],
        )
        for (config, rate), result in sorted(
            self.points.items(), key=lambda kv: (kv[0][0].value, kv[0][1])
        ):
            table.add_row(
                config.value,
                rate,
                f"{result.reply_rate:.0f}",
                self.mean_connection_ms(config, rate),
                self.mean_response_ms(config, rate),
                result.drops,
            )
        return table.render()


def run_point(
    config: Config,
    rate_per_s: int,
    duration_ns: int = 3 * SEC,
    seed: int = 3,
) -> HttperfResult:
    """One (configuration, request-rate) measurement."""
    builder = ScenarioBuilder(seed=seed).with_worker_vm(4).with_config(config)
    scenario = builder.build()
    seeds = SeedSequenceFactory(seed)
    server = ApacheServer(
        scenario.worker_kernel,
        rng=seeds.stream("apache", "normal"),
        kernel_lock=scenario.worker_kernel_lock,
    )
    client = HttperfClient(server, rng=seeds.generator("httperf"))
    scenario.start()
    scenario.run(WARMUP_NS)
    client.start(rate_per_s, duration_ns)
    # Run past the end so in-flight requests drain.
    scenario.run(scenario.machine.sim.now + duration_ns + SEC // 2)
    return client.collect()


def run(
    rates: list[int] | None = None,
    configs: list[Config] | None = None,
    duration_ns: int = 3 * SEC,
    seed: int = 3,
) -> Fig14Result:
    result = Fig14Result()
    for config in configs or ALL_CONFIGS:
        for rate in rates or DEFAULT_RATES:
            result.points[(config, rate)] = run_point(config, rate, duration_ns, seed)
    return result
