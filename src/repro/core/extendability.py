"""Algorithm 1: computing each VM's CPU extendability.

vScale defines a VM's *CPU extendability* as the maximum amount of CPU the
VM could receive from the hypervisor under work-conserving, proportional
sharing, given the other VMs' observed consumption.  The algorithm:

1. Compute every VM's fair share for the period: ``s_fair = w_i / Σw · t · P``.
2. VMs that consumed less than their fair share are **releasers**: the
   unused part of their fair share goes into the pool-wide slack, and their
   extendability is pinned to their fair share (so a releaser can always
   ramp straight back up to its deserved parallelism).
3. VMs that consumed at least their fair share are **competitors**: each
   receives, on top of its fair share, a weight-proportional slice of the
   slack.
4. The optimal vCPU count is ``n_i = ceil(s_ext / t)`` — the number of
   full-capacity pCPUs the VM could keep busy, with one extra vCPU allowed
   for a partial allocation.

Reservations and caps clamp the extendability before the ceiling is taken.

The :class:`VScaleExtension` wires the pure function into the hypervisor: a
10 ms ticker samples each domain's consumption from the credit scheduler's
own accounting data and publishes ``(extendability, n_i)`` into the domain
struct, where the guest reads it through the vScale channel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.hypervisor.domain import Domain
    from repro.hypervisor.machine import Machine


@dataclass(frozen=True)
class VMUsage:
    """Input row for one VM: scheduling parameters + observed consumption."""

    name: str
    weight: int
    #: CPU consumed during the period, in ns of pCPU time.
    consumed_ns: int
    #: Optional bounds, both expressed in pCPUs (cap=2.0 means "at most two
    #: full pCPUs worth of time per period").
    reservation: float = 0.0
    cap: float | None = None
    #: Number of (online) vCPUs the VM currently has; the optimal count is
    #: additionally clamped to the VM's provisioned maximum by the caller.
    max_vcpus: int | None = None

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ValueError(f"{self.name}: weight must be positive")
        if self.consumed_ns < 0:
            raise ValueError(f"{self.name}: consumption cannot be negative")
        if self.reservation < 0:
            raise ValueError(f"{self.name}: reservation cannot be negative")
        if self.cap is not None and self.cap <= 0:
            raise ValueError(f"{self.name}: cap must be positive when set")


@dataclass(frozen=True)
class ExtendabilityResult:
    """Output row for one VM."""

    name: str
    fair_share_ns: int
    extendability_ns: int
    optimal_vcpus: int
    is_competitor: bool


def compute_extendability(
    usages: Sequence[VMUsage],
    pool_pcpus: int,
    period_ns: int,
    competitor_tolerance: float = 0.0,
) -> dict[str, ExtendabilityResult]:
    """Run Algorithm 1 over one accounting period.

    Parameters
    ----------
    usages:
        Per-VM weight and consumption over the period.
    pool_pcpus:
        ``P`` — the number of pCPUs in the shared pool.
    period_ns:
        ``t`` — the recalculation period (paper default: 10 ms).
    competitor_tolerance:
        Classify a VM as a competitor when it consumed at least
        ``(1 - tolerance) x`` its fair share.  Algorithm 1 uses an exact
        comparison (tolerance 0); the in-hypervisor extension passes a few
        percent so measurement noise at the boundary cannot flap the
        classification.

    Returns
    -------
    Mapping from VM name to its :class:`ExtendabilityResult`.

    Properties (enforced by the property-based tests):

    * Work conservation: Σ extendability ≥ P·t when any competitor exists,
      and Σ min(extendability, demand-at-fair) never exceeds capacity.
    * Max–min fairness: slack is split between competitors proportionally
      to weight.
    * A releaser's extendability equals its fair share (ramp-up guarantee).
    * ``1 ≤ n_i ≤ P`` (after clamping) for every VM.
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
    rows = [(u.weight, u.consumed_ns, u.reservation, u.cap, u.max_vcpus) for u in usages]
    outcomes = _algorithm1(rows, pool_pcpus, period_ns, competitor_tolerance)
    return _results(names, outcomes)


#: Guard against float noise pushing e.g. exactly-2.0 pCPUs to ceil() == 3.
_CEIL_EPSILON = 1e-9

#: One VM's input to :func:`_algorithm1`: the :class:`VMUsage` fields
#: without the name — ``(weight, consumed_ns, reservation, cap, max_vcpus)``.
_Row = tuple[int, int, float, float | None, int | None]
#: One VM's output: ``(fair_share, extendability, n_i, is_competitor)``, both
#: shares in unrounded ns of pCPU time per period.
_Outcome = tuple[float, float, int, bool]


def _algorithm1(
    rows: Sequence[_Row], pool_pcpus: int, period_ns: int, tolerance: float
) -> list[_Outcome]:
    """Algorithm 1 over plain rows: one outcome per row, in input order.

    The only implementation of the algorithm.  :func:`compute_extendability`
    and the hypervisor ticker both call it, and their published values are
    ``round()`` of the shares returned here.  Inputs are trusted (the
    callers validate them).

    The clamps are comparisons, not ``min()``/``max()`` calls: a builtin
    call costs more than the rest of a row's arithmetic, and
    ``if b > a: a = b`` keeps exactly the object ``max(a, b)`` returns
    (likewise ``<`` for ``min``).
    """
    total_weight = sum(row[0] for row in rows)
    capacity = pool_pcpus * period_ns
    threshold = 1.0 - tolerance

    slack = 0.0
    competitor_weight = 0
    fair_shares: list[float] = []
    # A releaser's extendability (its effective fair share); None marks a
    # competitor, whose extendability needs the final slack.
    pinned: list[float | None] = []
    for weight, consumed, _reservation, cap, _max_vcpus in rows:
        s_fair = weight / total_weight * capacity
        fair_shares.append(s_fair)
        # A cap below the fair share limits what the VM may consume, and
        # therefore what it releases or competes for.
        effective_fair = s_fair
        if cap is not None:
            ceiling = cap * period_ns
            if ceiling < effective_fair:
                effective_fair = ceiling
        if consumed < effective_fair * threshold:
            # Releaser: contributes slack; extendability pinned to fair
            # share so its deserved parallelism stays available.
            slack += effective_fair - consumed
            pinned.append(effective_fair)
        else:
            competitor_weight += weight
            pinned.append(None)

    outcomes: list[_Outcome] = []
    for (weight, _consumed, reservation, cap, max_vcpus), s_fair, ext in zip(rows, fair_shares, pinned):
        competitor = ext is None
        if ext is None:
            # Competitor: fair share plus a weight-proportional slack slice.
            ext = s_fair + (weight / competitor_weight) * slack
        # Reservation (lower bound) and cap (upper bound), both in pCPUs.
        floor = reservation * period_ns
        if floor > ext:
            ext = floor
        if cap is not None:
            ceiling = cap * period_ns
            if ceiling < ext:
                ext = ceiling
        if capacity < ext:
            ext = capacity
        n = math.ceil(ext / period_ns - _CEIL_EPSILON)
        if pool_pcpus < n:
            n = pool_pcpus
        if n < 1:
            n = 1
        if max_vcpus is not None and max_vcpus < n:
            n = max_vcpus
        outcomes.append((s_fair, ext, n, competitor))
    return outcomes


def _results(names: Sequence[str], outcomes: Sequence[_Outcome]) -> dict[str, ExtendabilityResult]:
    return {
        name: ExtendabilityResult(name, round(fair), round(ext), n, competitor)
        for name, (fair, ext, n, competitor) in zip(names, outcomes)
    }


class VScaleExtension:
    """The hypervisor-side vScale scheduler extension.

    Runs ``vscale_ticker_fn`` every ``vscale_period_ns`` (default 10 ms) on
    the pool's master pCPU: samples per-domain consumption accumulated by
    ``burn_credits`` since the previous tick, runs Algorithm 1, and stores
    the result in each domain struct for the guest to read via the channel.

    UP domains (a single provisioned vCPU) are skipped — they have no room
    to scale — but they still participate as competitors/releasers in the
    calculation, exactly as in the paper.
    """

    #: EWMA weight of the newest window.  The credit scheduler's 30 ms
    #: slices make raw 10 ms consumption windows bursty (a domain runs for
    #: a whole slice, then waits); smoothing over ~3 windows recovers the
    #: true demand without noticeably delaying reaction to load changes.
    EWMA_ALPHA = 0.4
    #: Classification slack at the competitor/releaser boundary (see
    #: ``compute_extendability``).
    COMPETITOR_TOLERANCE = 0.05

    def __init__(self, machine: "Machine"):
        self.machine = machine
        self.period_ns = machine.config.vscale_period_ns
        if self.period_ns <= 0:
            raise ValueError("vScale period must be positive")
        self._last_consumed: dict[str, int] = {}
        self._ewma: dict[str, float] = {}
        self._running = False
        # The last pass's domains and Algorithm 1 outcomes, from which
        # ``last_results`` is built when read.
        self._last_pass: tuple[tuple["Domain", ...], list[_Outcome]] = ((), [])
        #: Count of reconfigurations observed (freeze/unfreeze hypercalls).
        self.reconfigurations: dict[str, int] = {}

    @property
    def last_results(self) -> dict[str, ExtendabilityResult]:
        """The most recent pass's full result set, built when read (tests)."""
        domains, outcomes = self._last_pass
        return _results([domain.name for domain in domains], outcomes)

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self.machine.sim.schedule(self.period_ns, self._ticker)

    def _ticker(self) -> None:
        self.recompute()
        self.machine.sim.schedule(self.period_ns, self._ticker)

    def recompute(self) -> None:
        """One vscale_ticker_fn invocation (callable directly from tests).

        Samples every domain straight into an Algorithm 1 row and publishes
        the outcome into the SMP domains' structs.  The :class:`VMUsage` and
        :class:`ExtendabilityResult` views are built only for an installed
        sanitizer, and for ``last_results`` when it is read.
        """
        machine = self.machine
        now = machine.sim.now
        domains = tuple(machine.domains)
        last_consumed = self._last_consumed
        ewma = self._ewma
        rows: list[_Row] = []
        for domain in domains:
            name = domain.name
            vcpus = domain.vcpus
            consumed_total = domain.total_consumed_ns
            # Include the in-flight running intervals so a domain that has
            # been on-CPU for the whole period is seen as consuming.
            for vcpu in vcpus:
                started = vcpu.run_started_at
                if started is not None:
                    consumed_total += now - started
            consumed = consumed_total - last_consumed.get(name, 0)
            if consumed < 0:
                consumed = 0
            last_consumed[name] = consumed_total
            smoothed = ewma.get(name, float(consumed))
            smoothed += self.EWMA_ALPHA * (consumed - smoothed)
            ewma[name] = smoothed
            rows.append((domain.weight, round(smoothed), domain.reservation, domain.cap, len(vcpus)))
        pcpus = machine.config.pcpus
        outcomes = _algorithm1(rows, pcpus, self.period_ns, self.COMPETITOR_TOLERANCE)
        for domain, (_fair, ext, n, _competitor) in zip(domains, outcomes):
            if len(domain.vcpus) > 1:  # UP-VMs are omitted (no room to scale)
                domain.extendability_ns = round(ext)
                domain.optimal_vcpus = n
                domain.extendability_published_ns = now
        self._last_pass = (domains, outcomes)
        sanitizer = machine.sanitizer
        if sanitizer is not None:
            names = [domain.name for domain in domains]
            sanitizer.check_extendability(
                [VMUsage(name, *row) for name, row in zip(names, rows)],
                _results(names, outcomes),
                pool_pcpus=pcpus,
                period_ns=self.period_ns,
                tolerance=self.COMPETITOR_TOLERANCE,
            )

    def read(self, domain: "Domain") -> tuple[int, int]:
        """Serve SCHEDOP_getvscaleinfo for one domain."""
        if domain.extendability_ns is None or domain.optimal_vcpus is None:
            # Before the first tick: report full-capacity optimism, which
            # matches Xen booting all provisioned vCPUs.
            return (
                self.machine.config.pcpus * self.period_ns,
                min(len(domain.vcpus), self.machine.config.pcpus),
            )
        return domain.extendability_ns, domain.optimal_vcpus

    def note_reconfiguration(self, domain: "Domain") -> None:
        """Track freeze/unfreeze hypercalls (accounting skips frozen vCPUs
        immediately via Domain.active_vcpus(); this is just bookkeeping)."""
        self.reconfigurations[domain.name] = self.reconfigurations.get(domain.name, 0) + 1
