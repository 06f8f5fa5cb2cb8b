"""The reference vScale ticker: Algorithm 1 over ``VMUsage`` rows and dicts.

The hypervisor extension (:class:`repro.core.extendability.VScaleExtension`)
samples every domain straight into a plain row and runs the one row core
behind :func:`repro.core.extendability.compute_extendability`.  This module
keeps the per-period loop that core replaced, as the oracle the differential
tests hold it to: each period builds a frozen :class:`VMUsage` per domain,
runs Algorithm 1 over name-keyed dicts and publishes from the
:class:`ExtendabilityResult` objects.  The arithmetic is the same operation
for operation, so every published value must match bit for bit.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Sequence

from repro.core.extendability import ExtendabilityResult, VMUsage, VScaleExtension

if TYPE_CHECKING:  # pragma: no cover
    from repro.hypervisor.machine import Machine

_CEIL_EPSILON = 1e-9


def reference_shares(
    usages: Sequence[VMUsage],
    pool_pcpus: int,
    period_ns: int,
    competitor_tolerance: float = 0.0,
) -> dict[str, tuple[float, float, int, bool]]:
    """Algorithm 1 with per-name dicts, three passes and ``min``/``max``.

    Returns ``name -> (fair_share, extendability, n_i, is_competitor)``
    with both shares unrounded, so tests can compare them bit for bit.
    """
    if pool_pcpus < 1:
        raise ValueError("pool must contain at least one pCPU")
    if period_ns <= 0:
        raise ValueError("period must be positive")
    if not usages:
        return {}
    names = [u.name for u in usages]
    if len(set(names)) != len(names):
        raise ValueError("duplicate VM names in usage list")

    total_weight = sum(u.weight for u in usages)
    capacity = pool_pcpus * period_ns

    slack = 0.0
    competitors: list[VMUsage] = []
    fair_share: dict[str, float] = {}
    extendability: dict[str, float] = {}

    for usage in usages:
        s_fair = usage.weight / total_weight * capacity
        fair_share[usage.name] = s_fair
        effective_fair = s_fair
        if usage.cap is not None:
            effective_fair = min(effective_fair, usage.cap * period_ns)
        if usage.consumed_ns < effective_fair * (1.0 - competitor_tolerance):
            slack += effective_fair - usage.consumed_ns
            extendability[usage.name] = effective_fair
        else:
            competitors.append(usage)

    competitor_weight = sum(u.weight for u in competitors)
    competitor_names = {u.name for u in competitors}
    for usage in competitors:
        s_fair = fair_share[usage.name]
        share_of_slack = (usage.weight / competitor_weight) * slack
        extendability[usage.name] = s_fair + share_of_slack

    shares: dict[str, tuple[float, float, int, bool]] = {}
    for usage in usages:
        ext = extendability[usage.name]
        ext = max(ext, usage.reservation * period_ns)
        if usage.cap is not None:
            ext = min(ext, usage.cap * period_ns)
        ext = min(ext, capacity)
        n = math.ceil(ext / period_ns - _CEIL_EPSILON)
        n = max(1, min(n, pool_pcpus))
        if usage.max_vcpus is not None:
            n = min(n, usage.max_vcpus)
        shares[usage.name] = (fair_share[usage.name], ext, n, usage.name in competitor_names)
    return shares


def published_results(shares: dict[str, tuple[float, float, int, bool]]) -> dict[str, ExtendabilityResult]:
    """The published view of :func:`reference_shares`: both shares rounded."""
    return {
        name: ExtendabilityResult(
            name=name,
            fair_share_ns=round(fair),
            extendability_ns=round(ext),
            optimal_vcpus=n,
            is_competitor=competitor,
        )
        for name, (fair, ext, n, competitor) in shares.items()
    }


def reference_extendability(
    usages: Sequence[VMUsage],
    pool_pcpus: int,
    period_ns: int,
    competitor_tolerance: float = 0.0,
) -> dict[str, ExtendabilityResult]:
    """``compute_extendability`` as the dict-based body computes it."""
    return published_results(reference_shares(usages, pool_pcpus, period_ns, competitor_tolerance))


class ReferenceTicker:
    """``vscale_ticker_fn`` as one ``VMUsage`` per domain per period.

    Drive it with :meth:`recompute` (it arms no event); it publishes into
    the same domain fields as :class:`VScaleExtension` and keeps the same
    EWMA state.
    """

    EWMA_ALPHA = VScaleExtension.EWMA_ALPHA
    COMPETITOR_TOLERANCE = VScaleExtension.COMPETITOR_TOLERANCE

    def __init__(self, machine: "Machine"):
        self.machine = machine
        self.period_ns = machine.config.vscale_period_ns
        self._last_consumed: dict[str, int] = {}
        self._ewma: dict[str, float] = {}
        #: The last pass's unrounded Algorithm 1 values, per domain name.
        self.last_shares: dict[str, tuple[float, float, int, bool]] = {}
        self.last_results: dict[str, ExtendabilityResult] = {}

    def recompute(self) -> dict[str, ExtendabilityResult]:
        machine = self.machine
        now = machine.sim.now
        usages = []
        for domain in machine.domains:
            consumed_total = domain.total_consumed_ns
            for vcpu in domain.vcpus:
                if vcpu.run_started_at is not None:
                    consumed_total += now - vcpu.run_started_at
            previous = self._last_consumed.get(domain.name, 0)
            consumed = max(0, consumed_total - previous)
            self._last_consumed[domain.name] = consumed_total
            smoothed = self._ewma.get(domain.name, float(consumed))
            smoothed += self.EWMA_ALPHA * (consumed - smoothed)
            self._ewma[domain.name] = smoothed
            usages.append(
                VMUsage(
                    name=domain.name,
                    weight=domain.weight,
                    consumed_ns=round(smoothed),
                    reservation=domain.reservation,
                    cap=domain.cap,
                    max_vcpus=len(domain.vcpus),
                )
            )
        self.last_shares = reference_shares(
            usages,
            pool_pcpus=machine.config.pcpus,
            period_ns=self.period_ns,
            competitor_tolerance=self.COMPETITOR_TOLERANCE,
        )
        results = published_results(self.last_shares)
        for domain in machine.domains:
            result = results[domain.name]
            if len(domain.vcpus) > 1:
                domain.extendability_ns = result.extendability_ns
                domain.optimal_vcpus = result.optimal_vcpus
                domain.extendability_published_ns = now
        self.last_results = results
        return results
