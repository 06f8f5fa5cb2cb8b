"""The invariant checkers and the :class:`Sanitizer` that hosts them.

Each checker verifies one invariant the paper states but the simulation
otherwise only maintains implicitly.  Checkers are grouped by the layer
whose edge invokes them:

===================  ==============================================  =======================================
checker              invariant                                       hook site
===================  ==============================================  =======================================
event_monotonic      dispatched events never move time backwards,    ``Simulator.run``
                     fire in ``(born, seq)`` order within an
                     instant, and tombstoned events never fire
credit_frozen_burn   a FROZEN vCPU never burns CPU time              every scheduler's charge path
                     (Algorithm 2 / paper §4.3)                      (``Scheduler.charge_domain`` /
                                                                     ``CreditScheduler._burn``)
credit_conservation  one accounting period grants exactly            ``CreditScheduler._acct`` (credit
                     ``P x acct_ns`` of credit; frozen vCPUs get     scheduler only — other schedulers
                     none; balances stay inside the clamp            have no accounting period)
runqueue_state       queued vCPUs are RUNNABLE, appear on exactly    ``CreditScheduler._acct``,
                     one queue, and pCPU.current back-pointers       ``QueueScheduler._tick`` (via each
                     agree — via ``Scheduler.runqueues_view()``      scheduler's ``runqueues_view()``)
vcpu_transition      vCPU state transitions follow the legal         ``VCPU.set_state``
                     machine; entering FROZEN requires a drained
                     guest runqueue and a set freeze-mask bit
freeze_mask_power    ``cpu_freeze_mask`` <-> scheduling-group power  ``CreditScheduler._acct``,
                     <-> hypervisor FROZEN states agree              ``VScaleBalancer`` post-op
freeze_migration     after the reschedule IPI completes, no          ``GuestKernel._finish_freeze_migration``
                     migratable thread is left enqueued on the
                     freezing vCPU and no event channel binds to it
thread_placement     wakeups/forks never place an unpinned thread    ``GuestKernel.wake_thread`` / ``spawn``
                     on a frozen vCPU
extendability        Algorithm 1 conserves CPU share across          ``VScaleExtension.recompute``
                     releasers and competitors, splits slack by
                     weight, and publishes ``n_i = ceil(s_ext/t)``
===================  ==============================================  =======================================

All checks are read-only: a sanitized run that does not violate an
invariant is bit-for-bit identical to an unsanitized one.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.hypervisor.domain import VCPUState
from repro.sanitize.errors import InvariantViolation
from repro.sim.trace import NULL_TRACER, Tracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.core.extendability import ExtendabilityResult, VMUsage
    from repro.guest.kernel import GuestKernel
    from repro.guest.threads import Thread
    from repro.hypervisor.schedulers.base import Scheduler
    from repro.hypervisor.schedulers.credit import CreditScheduler
    from repro.hypervisor.domain import Domain, VCPU
    from repro.hypervisor.machine import Machine
    from repro.sim.engine import Event, Simulator

#: Legal vCPU state transitions (see VCPUState's docstring): FROZEN can
#: only be left through BLOCKED (an explicit unfreeze), and nothing runs
#: without first being RUNNABLE.
_ALLOWED_TRANSITIONS: dict[VCPUState, frozenset[VCPUState]] = {
    VCPUState.RUNNING: frozenset({VCPUState.RUNNABLE, VCPUState.BLOCKED, VCPUState.FROZEN}),
    VCPUState.RUNNABLE: frozenset({VCPUState.RUNNING, VCPUState.BLOCKED, VCPUState.FROZEN}),
    VCPUState.BLOCKED: frozenset({VCPUState.RUNNABLE, VCPUState.FROZEN}),
    VCPUState.FROZEN: frozenset({VCPUState.BLOCKED}),
}

#: Relative tolerance for float-accumulated credit/share sums.
_REL_TOL = 1e-9
#: Absolute slop (ns) for quantities that went through round().
_ROUND_SLOP = 2.0


def _guest_kernel(domain: "Domain") -> "GuestKernel | None":
    """The domain's guest when it is a full kernel (has a freeze mask)."""
    guest = domain.guest
    if guest is not None and hasattr(guest, "cpu_freeze_mask"):
        return guest  # type: ignore[return-value]
    return None


class Sanitizer:
    """Per-:class:`Machine` invariant-checking harness.

    Installed either explicitly (``machine.install_sanitizer()``) or by
    setting ``REPRO_SANITIZE=1`` in the environment, which makes every
    Machine constructed anywhere (including experiment worker processes)
    self-install one.  Each hook site in the stack checks
    ``machine.sanitizer is not None`` first, so the disabled cost is one
    attribute load per edge.
    """

    #: Trace records carried by an InvariantViolation for post-mortem.
    TAIL = 40

    def __init__(self, machine: "Machine", tail: int = TAIL):
        if tail < 1:
            raise ValueError("tail must be positive")
        self.machine = machine
        self.tail = tail
        #: Checks performed, per checker name (insertion-ordered).
        self.stats: dict[str, int] = {}
        self.violations = 0
        #: ``(time, born, seq)`` of the last dispatched event.
        self._last_dispatch: tuple[int, int, int] | None = None

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self) -> "Sanitizer":
        machine = self.machine
        if machine.sanitizer is not None and machine.sanitizer is not self:
            raise RuntimeError("machine already has a sanitizer installed")
        machine.sanitizer = self
        machine.sim.dispatch_check = self.check_dispatch
        if machine.tracer is NULL_TRACER:
            # Keep a rolling tail of everything so violations carry context
            # even when the caller did not ask for tracing.
            machine.tracer = Tracer(
                Tracer.KNOWN_CATEGORIES, capacity=max(4 * self.tail, 256), ring=True
            )
        return self

    # ------------------------------------------------------------------
    # Failure plumbing
    # ------------------------------------------------------------------
    def fail(self, checker: str, message: str, **context) -> None:
        """Raise an :class:`InvariantViolation` with the trace tail."""
        self.violations += 1
        records = list(self.machine.tracer.records)
        raise InvariantViolation(
            checker,
            message,
            time_ns=self.machine.sim.now,
            context=context,
            trace_tail=records[-self.tail:],
        )

    def _count(self, checker: str) -> None:
        self.stats[checker] = self.stats.get(checker, 0) + 1

    # ------------------------------------------------------------------
    # sim/engine: event-dispatch edge
    # ------------------------------------------------------------------
    def check_dispatch(self, sim: "Simulator", event: "Event") -> None:
        """Events fire in nondecreasing time order, in nondecreasing
        ``(born, seq)`` order within one instant, and are never tombstones.

        The second clause catches an event scheduled into the current
        instant with a key that sorts before an event that already fired
        there — e.g. an elided guest tick re-armed out of order.
        """
        self._count("event_monotonic")
        if event.cancelled:
            self.fail(
                "event_monotonic",
                "tombstoned (cancelled) event reached dispatch",
                event=repr(event),
            )
        if event.time < sim.now:
            self.fail(
                "event_monotonic",
                "event dispatch would move simulation time backwards",
                event_time=event.time,
                now=sim.now,
            )
        key = (event.time, event.born, event.seq)
        last = self._last_dispatch
        if last is not None and last[0] == key[0] and key < last:
            self.fail(
                "event_monotonic",
                "same-instant event dispatched out of (born, seq) order",
                event=repr(event),
                previous_born=last[1],
                previous_seq=last[2],
            )
        self._last_dispatch = key

    # ------------------------------------------------------------------
    # hypervisor/credit: burn + accounting edges
    # ------------------------------------------------------------------
    def check_burn(self, vcpu: "VCPU", elapsed: int) -> None:
        """Credit accounting must skip frozen vCPUs (Algorithm 2 step 3)."""
        self._count("credit_frozen_burn")
        if vcpu.state is VCPUState.FROZEN:
            self.fail(
                "credit_frozen_burn",
                f"{vcpu.name} burned {elapsed}ns of credit while FROZEN",
                vcpu=vcpu.name,
                elapsed_ns=elapsed,
                credits=vcpu.credits,
            )
        if elapsed < 0:
            self.fail(
                "credit_frozen_burn",
                f"{vcpu.name} burned a negative interval",
                vcpu=vcpu.name,
                elapsed_ns=elapsed,
            )

    def check_acct(
        self,
        scheduler: "CreditScheduler",
        active_domains: Sequence["Domain"],
        before: dict["VCPU", float],
    ) -> None:
        """One accounting period conserves credit and skips frozen vCPUs.

        ``before`` maps each active vCPU to its pre-distribution balance.
        Expected balances are re-derived here from the host config and the
        domains' weights (the paper's formula), not from the scheduler's
        loop, so a skipped domain, a grant to a frozen vCPU or a wrong
        weight mode shows up as a mismatch.
        """
        self._count("credit_conservation")
        config = scheduler.config
        acct = config.acct_ns
        pool_credit = config.pcpus * acct
        if config.per_vm_weight:
            weights = {d: d.weight for d in active_domains}
        else:
            weights = {d: d.weight * len(d.active_vcpus()) for d in active_domains}
        total_weight = sum(weights.values())
        for domain in active_domains:
            share = pool_credit * weights[domain] / total_weight
            active = domain.active_vcpus()
            per_vcpu = share / len(active)
            for vcpu in active:
                expected = min(acct, max(-acct, before[vcpu] + per_vcpu))
                if abs(vcpu.credits - expected) > _REL_TOL * acct:
                    self.fail(
                        "credit_conservation",
                        f"{vcpu.name} did not receive its weight-proportional credit",
                        vcpu=vcpu.name,
                        credits=vcpu.credits,
                        expected=expected,
                        per_vcpu_ns=per_vcpu,
                    )
            if domain.window_consumed_ns != 0:
                self.fail(
                    "credit_conservation",
                    f"{domain.name}'s consumption window was not reset by accounting",
                    domain=domain.name,
                    window_consumed_ns=domain.window_consumed_ns,
                )
        for domain in scheduler.machine.domains:
            for vcpu in domain.vcpus:
                # Freezing zeroes the balance and then burns the final
                # running slice, so a frozen vCPU may carry debt — but a
                # *positive* balance means accounting granted it credit.
                if vcpu.state is VCPUState.FROZEN and vcpu.credits > _REL_TOL * acct:
                    self.fail(
                        "credit_conservation",
                        f"frozen vCPU {vcpu.name} was granted credit",
                        vcpu=vcpu.name,
                        credits=vcpu.credits,
                    )

    def check_runqueues(self, scheduler: "Scheduler") -> None:
        """Runqueue membership is exclusive and states agree with placement.

        Scheduler-agnostic: pCPU <-> vCPU coherence comes from the machine's
        pool, and queue membership from the scheduler's own
        ``runqueues_view()`` — per-pCPU and global-queue schedulers alike.
        """
        self._count("runqueue_state")
        for pcpu in scheduler.machine.pool:
            current = pcpu.current
            if current is not None:
                if current.state is not VCPUState.RUNNING:
                    self.fail(
                        "runqueue_state",
                        f"{pcpu.name} runs {current.name} which is {current.state.value}",
                        pcpu=pcpu.name,
                        vcpu=current.name,
                    )
                if current.pcpu is not pcpu:
                    self.fail(
                        "runqueue_state",
                        f"{current.name}.pcpu does not point back at {pcpu.name}",
                        pcpu=pcpu.name,
                        vcpu=current.name,
                    )
        seen: dict["VCPU", str] = {}
        for label, queue in scheduler.runqueues_view():
            for vcpu in queue:
                if vcpu in seen:
                    self.fail(
                        "runqueue_state",
                        f"{vcpu.name} is on two runqueues",
                        vcpu=vcpu.name,
                        queues=f"{seen[vcpu]} and {label}",
                    )
                seen[vcpu] = label
                if vcpu.state is not VCPUState.RUNNABLE:
                    self.fail(
                        "runqueue_state",
                        f"{vcpu.name} is queued on {label} while {vcpu.state.value}",
                        vcpu=vcpu.name,
                        pcpu=label,
                    )

    def check_enqueue(self, vcpu: "VCPU") -> None:
        """Only RUNNABLE vCPUs may enter a hypervisor runqueue."""
        self._count("runqueue_state")
        if vcpu.state is not VCPUState.RUNNABLE:
            self.fail(
                "runqueue_state",
                f"{vcpu.name} enqueued while {vcpu.state.value}",
                vcpu=vcpu.name,
            )

    # ------------------------------------------------------------------
    # hypervisor/domain: state-transition edge
    # ------------------------------------------------------------------
    def check_vcpu_transition(self, vcpu: "VCPU", new_state: VCPUState) -> None:
        self._count("vcpu_transition")
        old = vcpu.state
        if new_state not in _ALLOWED_TRANSITIONS[old]:
            self.fail(
                "vcpu_transition",
                f"illegal vCPU transition {old.value} -> {new_state.value}",
                vcpu=vcpu.name,
            )
        if new_state is VCPUState.FROZEN:
            kernel = _guest_kernel(vcpu.domain)
            # The drained-runqueue guarantee belongs to Algorithm 2's
            # guest-side sequence; the mask bit is how we know the guest
            # initiated this freeze (tests may freeze a vCPU directly at
            # the hypervisor, where no guest contract applies).
            if kernel is not None and vcpu.index in kernel.cpu_freeze_mask:
                rq = kernel.runqueues[vcpu.index]
                if rq.current is not None or rq.ready:
                    self.fail(
                        "vcpu_transition",
                        f"{vcpu.name} froze with threads still on its runqueue",
                        vcpu=vcpu.name,
                        current=rq.current.name if rq.current else None,
                        ready=[t.name for t in rq.ready],
                    )

    # ------------------------------------------------------------------
    # guest/kernel: freeze mask, migration and placement edges
    # ------------------------------------------------------------------
    def check_freeze_mask(self, kernel: "GuestKernel") -> None:
        """``cpu_freeze_mask`` <-> group power <-> FROZEN states agree."""
        self._count("freeze_mask_power")
        n = len(kernel.runqueues)
        mask = kernel.cpu_freeze_mask
        for index in sorted(mask):
            if not 0 <= index < n:
                self.fail(
                    "freeze_mask_power",
                    f"cpu_freeze_mask holds out-of-range vCPU index {index}",
                    mask=sorted(mask),
                    vcpus=n,
                )
        if 0 in mask:
            self.fail(
                "freeze_mask_power",
                "the master vCPU (vCPU0) is in cpu_freeze_mask",
                mask=sorted(mask),
            )
        power = kernel.online_vcpus
        if power != n - len(mask):
            self.fail(
                "freeze_mask_power",
                "scheduling-group power disagrees with the freeze mask",
                power=power,
                vcpus=n,
                mask=sorted(mask),
            )
        for index in sorted(mask):
            rq = kernel.runqueues[index]
            if any(t.migratable and not t.done for t in rq.ready):
                vcpu = kernel.domain.vcpus[index]
                # A masked vCPU mid-eviction is fine; one that already
                # completed its freeze must not be holding migratable work.
                if vcpu.state is VCPUState.FROZEN:
                    self.fail(
                        "freeze_mask_power",
                        f"frozen vCPU {index} holds migratable ready threads",
                        vcpu_index=index,
                        threads=[t.name for t in rq.ready if t.migratable],
                    )

    def check_freeze_migration(self, kernel: "GuestKernel", index: int) -> None:
        """After the reschedule IPI's eviction completes, vCPU ``index``
        holds no migratable work and no event-channel binding."""
        self._count("freeze_migration")
        rq = kernel.runqueues[index]
        leftovers = [t.name for t in rq.ready if t.migratable and not t.done]
        if leftovers:
            self.fail(
                "freeze_migration",
                f"migratable threads left on freezing vCPU {index}",
                vcpu_index=index,
                threads=leftovers,
            )
        if rq.current is not None and rq.current.migratable:
            self.fail(
                "freeze_migration",
                f"freezing vCPU {index} still runs a migratable thread",
                vcpu_index=index,
                thread=rq.current.name,
            )
        bound = [c.name for c in kernel.domain.event_channels if c.bound_vcpu == index]
        if bound:
            self.fail(
                "freeze_migration",
                f"event channels still bound to freezing vCPU {index}",
                vcpu_index=index,
                channels=bound,
            )

    def check_thread_placement(
        self, kernel: "GuestKernel", thread: "Thread", target: int
    ) -> None:
        """Wake/fork placement never lands unpinned work on a frozen vCPU."""
        self._count("thread_placement")
        if thread.pinned_to is None and target in kernel.cpu_freeze_mask:
            self.fail(
                "thread_placement",
                f"{thread.name} placed on frozen vCPU {target}",
                thread=thread.name,
                target=target,
                mask=sorted(kernel.cpu_freeze_mask),
            )
        if thread.vcpu_index != target:
            self.fail(
                "thread_placement",
                f"{thread.name} enqueued on rq{thread.vcpu_index}, not its target {target}",
                thread=thread.name,
                target=target,
            )

    # ------------------------------------------------------------------
    # core/extendability: Algorithm 1's published results
    # ------------------------------------------------------------------
    def check_extendability(
        self,
        usages: Sequence["VMUsage"],
        results: dict[str, "ExtendabilityResult"],
        pool_pcpus: int,
        period_ns: int,
        tolerance: float,
    ) -> None:
        """Property-check one Algorithm-1 round from its inputs and outputs.

        Verified without re-running the algorithm: fair shares sum to the
        pool's capacity, releasers keep exactly their (cap-clamped) fair
        share, competitors split the released slack proportionally to
        weight, the total share is conserved, and the published optimal
        vCPU count agrees with ``n_i = ceil(s_ext / t)``.  The conservation
        and proportionality checks are skipped for VMs whose reservation or
        cap clamps bind, since clamping intentionally breaks them.
        """
        self._count("extendability")
        capacity = pool_pcpus * period_ns
        total_weight = sum(u.weight for u in usages)
        fair_sum = sum(r.fair_share_ns for r in results.values())
        if abs(fair_sum - capacity) > _ROUND_SLOP * max(1, len(usages)):
            self.fail(
                "extendability",
                "fair shares do not sum to the pool capacity",
                fair_sum_ns=fair_sum,
                capacity_ns=capacity,
            )
        slack = 0.0
        unclamped = []
        slack_ratios: list[tuple[str, float]] = []
        for usage in usages:
            result = results[usage.name]
            n = result.optimal_vcpus
            limit = min(pool_pcpus, usage.max_vcpus or pool_pcpus)
            # The published extendability went through round(); accept the
            # ceil() of any value within that half-ns of rounding slack.
            acceptable = [
                max(1, min(limit, math.ceil((result.extendability_ns + delta) / period_ns - 1e-9)))
                for delta in (-1.0, 0.0, 1.0)
            ]
            if n not in acceptable:
                self.fail(
                    "extendability",
                    f"{usage.name}: published n_i disagrees with ceil(s_ext/t)",
                    optimal_vcpus=n,
                    expected=acceptable[1],
                    extendability_ns=result.extendability_ns,
                )
            if not 1 <= n <= pool_pcpus:
                self.fail(
                    "extendability",
                    f"{usage.name}: optimal vCPU count outside [1, P]",
                    optimal_vcpus=n,
                    pool_pcpus=pool_pcpus,
                )
            fair = usage.weight / total_weight * capacity
            effective_fair = fair
            if usage.cap is not None:
                effective_fair = min(effective_fair, usage.cap * period_ns)
            clamped = (
                usage.reservation * period_ns > effective_fair
                or result.extendability_ns >= capacity - _ROUND_SLOP
            )
            if not result.is_competitor:
                slack += effective_fair - usage.consumed_ns
                if not clamped and abs(result.extendability_ns - effective_fair) > _ROUND_SLOP:
                    self.fail(
                        "extendability",
                        f"releaser {usage.name} was not pinned to its fair share",
                        extendability_ns=result.extendability_ns,
                        effective_fair_ns=effective_fair,
                    )
            elif not clamped and usage.cap is None:
                unclamped.append((usage, result, fair))
                slack_ratios.append(
                    (usage.name, (result.extendability_ns - fair) / usage.weight)
                )
        # Conservation: every ns a releaser gave up reappears in competitor
        # extendability (when no clamp swallowed it).
        if unclamped and len(unclamped) == sum(r.is_competitor for r in results.values()):
            absorbed = sum(res.extendability_ns - fair for _, res, fair in unclamped)
            if abs(absorbed - slack) > _ROUND_SLOP * max(1, len(usages)) + _REL_TOL * capacity:
                self.fail(
                    "extendability",
                    "released slack was not conserved across competitors",
                    released_ns=slack,
                    absorbed_ns=absorbed,
                )
        if len(slack_ratios) > 1:
            ratios = [ratio for _, ratio in slack_ratios]
            if max(ratios) - min(ratios) > _ROUND_SLOP + _REL_TOL * capacity:
                self.fail(
                    "extendability",
                    "slack split is not weight-proportional across competitors",
                    per_weight_slack={name: ratio for name, ratio in slack_ratios},
                )

    # ------------------------------------------------------------------
    # core/balancer: post-operation agreement
    # ------------------------------------------------------------------
    def check_balancer_op(self, kernel: "GuestKernel", index: int, freeze: bool) -> None:
        """After sys_freezecpu/sys_unfreezecpu, mask and hypervisor agree."""
        self._count("freeze_mask_power")
        vcpu = kernel.domain.vcpus[index]
        if freeze:
            if index not in kernel.cpu_freeze_mask:
                self.fail(
                    "freeze_mask_power",
                    f"freeze({index}) returned with the mask bit clear",
                    vcpu=vcpu.name,
                )
            if not vcpu.freeze_pending and vcpu.state is not VCPUState.FROZEN:
                self.fail(
                    "freeze_mask_power",
                    f"freeze({index}) did not mark the vCPU at the hypervisor",
                    vcpu=vcpu.name,
                    state=vcpu.state.value,
                )
        else:
            if index in kernel.cpu_freeze_mask:
                self.fail(
                    "freeze_mask_power",
                    f"unfreeze({index}) left the mask bit set",
                    vcpu=vcpu.name,
                )
            if vcpu.freeze_pending or vcpu.state is VCPUState.FROZEN:
                self.fail(
                    "freeze_mask_power",
                    f"unfreeze({index}) left the vCPU frozen at the hypervisor",
                    vcpu=vcpu.name,
                    state=vcpu.state.value,
                )
        self.check_freeze_mask(kernel)

    # ------------------------------------------------------------------
    # Machine-wide sweep (used from the accounting edge)
    # ------------------------------------------------------------------
    def check_machine(self, domains: Iterable["Domain"]) -> None:
        """Guest-side consistency for every kernel-backed domain."""
        for domain in domains:
            kernel = _guest_kernel(domain)
            if kernel is not None:
                self.check_freeze_mask(kernel)
