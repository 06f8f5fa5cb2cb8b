"""Xen-style credit scheduler.

This reimplements the behaviourally relevant core of Xen 4.5's ``csched``:

* Proportional-share **credit accounting** every 30 ms: the pool's capacity
  (``P × acct_ns`` nanoseconds of CPU) is split between domains by weight and
  then between each domain's active (non-frozen) vCPUs.  With the paper's
  per-VM weight patch, a domain's share does not change when it freezes
  vCPUs — the remaining vCPUs simply earn more each.
* **Credit burning**: a running vCPU's balance drains in real time; balances
  are clamped to one accounting period so nobody can hoard or starve forever.
* **Priorities**: vCPUs with non-negative credit run at UNDER, others at
  OVER.  A blocked vCPU that wakes with credit left enters BOOST and may
  preempt the running vCPU — this is Xen's latency mechanism for I/O.
* **30 ms time slices** with round-robin within a priority class, per-pCPU
  runqueues, and work stealing so no pCPU idles while another has backlog.
* **Caps**: a capped domain whose consumption in the current accounting
  window exceeds ``cap × acct_ns`` is parked until the next accounting.

The scheduling *delays* experienced by runnable vCPUs in these runqueues are
exactly what vScale attacks, so this module also feeds each vCPU's
time-in-state accounting.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, ClassVar, Iterator

from repro.hypervisor.domain import Domain, Priority, VCPU, VCPUState
from repro.hypervisor.schedulers.base import Scheduler, register

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.hypervisor.machine import Machine, PCPU


@register
class CreditScheduler(Scheduler):
    """The pool-wide scheduler instance."""

    name: ClassVar[str] = "credit"
    weight_proportional: ClassVar[bool] = True
    supports_caps: ClassVar[bool] = True
    uses_credit_accounting: ClassVar[bool] = True

    def __init__(self, machine: "Machine"):
        super().__init__(machine)
        #: Per-pCPU FIFO runqueues (lists of runnable vCPUs).
        self.runqueues: dict["PCPU", list[VCPU]] = {
            pcpu: [] for pcpu in machine.pool
        }
        self._tick_count = 0
        #: Capped domains parked until next accounting (insertion-ordered
        #: dict rather than a set: iteration must be deterministic).
        self._parked: dict[Domain, None] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Arm the periodic tick.  Called once by the machine."""
        self.sim.schedule(self.config.tick_ns, self._tick)

    # ------------------------------------------------------------------
    # Entry points from the machine (wake/block/freeze/yield)
    # ------------------------------------------------------------------
    def vcpu_wake(self, vcpu: VCPU) -> None:
        """Make a blocked vCPU runnable, applying Xen's BOOST heuristic."""
        if vcpu.state is not VCPUState.BLOCKED:
            return
        now = self.sim.now
        vcpu.set_state(VCPUState.RUNNABLE, now)
        if self.config.boost_enabled and vcpu.credits >= 0:
            vcpu.priority = Priority.BOOST
            vcpu.boosted = True
        else:
            vcpu.priority = self._base_priority(vcpu)
        pcpu = self._place(vcpu)
        self._enqueue(pcpu, vcpu)
        self._tickle(pcpu, vcpu)

    def vcpu_block(self, vcpu: VCPU) -> None:
        """The guest reports the vCPU idle (no runnable work).

        A freeze-pending vCPU that idles completes its freeze here: this is
        the last step of Algorithm 2's target-side sequence.
        """
        now = self.sim.now
        target = VCPUState.BLOCKED
        if vcpu.freeze_pending:
            target = VCPUState.FROZEN
            vcpu.freeze_pending = False
            # A frozen vCPU stops earning credits at the next accounting;
            # its residual balance is surrendered now, so siblings benefit
            # without waiting a period.
            vcpu.credits = 0.0
        if vcpu.state is VCPUState.RUNNING:
            self._stop_running(vcpu)
            vcpu.set_state(target, now)
            self.machine.request_reschedule(vcpu.last_pcpu)
        elif vcpu.state is VCPUState.RUNNABLE:
            self._dequeue(vcpu)
            vcpu.set_state(target, now)
        elif vcpu.state is VCPUState.BLOCKED and target is VCPUState.FROZEN:
            # Already idle when the freeze was requested: park it for good.
            vcpu.set_state(target, now)

    def vcpu_unfreeze(self, vcpu: VCPU) -> None:
        """Bring a frozen vCPU back as blocked (idle), ready to be woken."""
        vcpu.freeze_pending = False
        if vcpu.state is not VCPUState.FROZEN:
            return
        vcpu.set_state(VCPUState.BLOCKED, self.sim.now)
        vcpu.priority = Priority.UNDER

    def vcpu_yield(self, vcpu: VCPU) -> None:
        """Voluntarily give up the pCPU (pv-spinlock's spin-then-yield)."""
        if vcpu.state is not VCPUState.RUNNING:
            return
        pcpu = vcpu.pcpu
        self._stop_running(vcpu)
        vcpu.set_state(VCPUState.RUNNABLE, self.sim.now)
        # A yielding vCPU goes to the back of its priority class.
        vcpu.priority = self._base_priority(vcpu)
        self._enqueue(pcpu, vcpu)
        self.machine.request_reschedule(pcpu)

    # ------------------------------------------------------------------
    # Per-pCPU scheduling decision
    # ------------------------------------------------------------------
    def schedule(self, pcpu: "PCPU") -> None:
        """(Re)elect the vCPU to run on ``pcpu``.

        Invoked through the machine's deferred-reschedule mechanism on slice
        expiry, blocks, wakes and ticks.
        """
        now = self.sim.now
        current = pcpu.current
        if current is not None:
            # Account the elapsed slice and put the vCPU back in the queue.
            self._stop_running(current)
            current.set_state(VCPUState.RUNNABLE, now)
            current.priority = self._base_priority(current)
            self._enqueue(pcpu, current)

        candidate = self._pick(pcpu)
        if candidate is None:
            pcpu.set_idle(now)
            return
        self._dequeue(candidate)
        self._start_running(pcpu, candidate)

    def _pick(self, pcpu: "PCPU") -> VCPU | None:
        """Pick the best local candidate, stealing if the queue is empty or
        only has OVER-priority vCPUs while a peer has something better."""
        local = self.runqueues[pcpu]
        best_local = local[0] if local else None
        if best_local is not None and best_local.priority <= Priority.UNDER:
            return best_local
        if self.config.allow_stealing:
            stolen = self._steal(pcpu, better_than=best_local)
            if stolen is not None:
                return stolen
        return best_local

    def _steal(self, thief: "PCPU", better_than: VCPU | None) -> VCPU | None:
        """Steal the best-priority runnable vCPU from the busiest peer."""
        threshold = better_than.priority if better_than is not None else Priority.OVER + 1
        best: VCPU | None = None
        for pcpu, queue in self.runqueues.items():
            if pcpu is thief or not queue:
                continue
            head = queue[0]
            if head.priority < threshold and (best is None or head.priority < best.priority):
                best = head
        return best

    # ------------------------------------------------------------------
    # Queue mechanics
    # ------------------------------------------------------------------
    def _enqueue(self, pcpu: "PCPU", vcpu: VCPU) -> None:
        """Insert by priority, FIFO within a class."""
        sanitizer = self.machine.sanitizer
        if sanitizer is not None:
            sanitizer.check_enqueue(vcpu)
        queue = self.runqueues[pcpu]
        index = len(queue)
        for i, other in enumerate(queue):
            if vcpu.priority < other.priority:
                index = i
                break
        queue.insert(index, vcpu)
        vcpu.last_pcpu = pcpu

    def _dequeue(self, vcpu: VCPU) -> None:
        # _enqueue stamps last_pcpu, so a queued vCPU is always on its home
        # runqueue — check it first instead of scanning every pCPU's queue.
        home = vcpu.last_pcpu
        if home is not None:
            queue = self.runqueues[home]
            if vcpu in queue:
                queue.remove(vcpu)
                return
        for queue in self.runqueues.values():
            if vcpu in queue:
                queue.remove(vcpu)
                return

    def _place(self, vcpu: VCPU) -> "PCPU":
        """Choose a runqueue for a waking vCPU.

        Xen semantics: the wake goes to the vCPU's *home* pCPU (where it
        last ran — ``v->processor``), preempting whoever runs there if the
        waker outranks it.  Idle pCPUs do **not** intercept the wake; they
        rescue queued vCPUs via stealing, at their next scheduling event or
        the 10 ms tick.  This home-preemption + delayed-rescue pattern is
        what turns frequent interactive wake-ups in co-located VMs into
        the paper's asymmetric multi-millisecond vCPU stalls, even when
        the pool has idle capacity.
        """
        if vcpu.last_pcpu is not None:
            return vcpu.last_pcpu
        return min(self.machine.pool, key=lambda p: len(self.runqueues[p]))

    def _tickle(self, pcpu: "PCPU", vcpu: VCPU) -> None:
        """Preempt ``pcpu`` if the newly runnable vCPU outranks its current.

        Honors Xen's scheduler rate limit: a current that started running
        less than ``ratelimit_ns`` ago finishes that window first, so the
        preemption is deferred, not dropped.
        """
        current = pcpu.current
        if current is None:
            self.machine.request_reschedule(pcpu)
            return
        if vcpu.priority >= current.priority:
            return
        started = current.run_started_at
        ratelimit = self.config.ratelimit_ns
        if started is not None and self.sim.now - started < ratelimit:
            self.sim.schedule(
                started + ratelimit - self.sim.now,
                self._ratelimit_expired,
                pcpu,
                current,
            )
        else:
            self.machine.request_reschedule(pcpu)

    def _ratelimit_expired(self, pcpu: "PCPU", expected: VCPU) -> None:
        """Deferred preemption: still warranted only if the same vCPU runs
        and somebody better is queued."""
        if pcpu.current is not expected:
            return
        queue = self.runqueues[pcpu]
        if queue and queue[0].priority < expected.priority:
            self.machine.request_reschedule(pcpu)

    def tickle_vcpu(self, vcpu: VCPU) -> None:
        """Expedite scheduling of a specific runnable vCPU.

        The paper's Xen modification: when a reconfiguration IPI is pending
        for a vCPU, the hypervisor prioritizes it so thread migration starts
        promptly.  We implement it as a temporary boost plus a tickle.
        """
        if vcpu.state is not VCPUState.RUNNABLE:
            return
        self._dequeue(vcpu)
        vcpu.priority = Priority.BOOST
        vcpu.boosted = True
        pcpu = self._place(vcpu)
        self._enqueue(pcpu, vcpu)
        self._tickle(pcpu, vcpu)

    # ------------------------------------------------------------------
    # Running-interval bookkeeping
    # ------------------------------------------------------------------
    def _start_running(self, pcpu: "PCPU", vcpu: VCPU) -> None:
        now = self.sim.now
        vcpu.set_state(VCPUState.RUNNING, now)
        vcpu.pcpu = pcpu
        vcpu.last_pcpu = pcpu
        vcpu.run_started_at = now
        pcpu.set_current(vcpu, now)
        pcpu.arm_slice(self.config.timeslice_ns)
        if vcpu.domain.cap is not None:
            self.arm_cap_timer(vcpu.domain)
        self.machine.vcpu_context_entered(vcpu)

    def _stop_running(self, vcpu: VCPU) -> None:
        """Stop the RUNNING interval: burn credits, inform the guest."""
        now = self.sim.now
        pcpu = vcpu.pcpu
        assert pcpu is not None and vcpu.run_started_at is not None
        elapsed = now - vcpu.run_started_at
        self._burn(vcpu, elapsed)
        self.machine.vcpu_context_left(vcpu)
        pcpu.clear_current(now)
        vcpu.pcpu = None
        vcpu.run_started_at = None
        vcpu.boosted = False

    def _burn(self, vcpu: VCPU, elapsed: int) -> None:
        sanitizer = self.machine.sanitizer
        if sanitizer is not None:
            sanitizer.check_burn(vcpu, elapsed)
        vcpu.credits -= elapsed
        domain = vcpu.domain
        domain.window_consumed_ns += elapsed
        domain.total_consumed_ns += elapsed
        if (
            domain.cap is not None
            and domain not in self._parked
            and not self._cap_ok(domain)
        ):
            self._park(domain)

    def _base_priority(self, vcpu: VCPU) -> Priority:
        return Priority.UNDER if vcpu.credits >= 0 else Priority.OVER

    # ------------------------------------------------------------------
    # Cap enforcement (Xen's hard cap: over-cap domains are parked —
    # removed from the runqueues — until the next accounting).
    # ------------------------------------------------------------------
    def _cap_ok(self, domain: Domain) -> bool:
        limit = domain.cap * self.config.acct_ns
        return domain.window_consumed_ns <= limit

    def _window_consumption(self, domain: Domain) -> int:
        """Window consumption including in-flight running intervals."""
        total = domain.window_consumed_ns
        now = self.sim.now
        for vcpu in domain.vcpus:
            if vcpu.state is VCPUState.RUNNING and vcpu.run_started_at is not None:
                total += now - vcpu.run_started_at
        return total

    def arm_cap_timer(self, domain: Domain) -> None:
        """Schedule a park check at the projected budget-exhaustion time."""
        if domain.cap is None or domain in self._parked:
            return
        limit = round(domain.cap * self.config.acct_ns)
        budget = limit - self._window_consumption(domain)
        if budget <= 0:
            self._park(domain)
            return
        running = sum(1 for v in domain.vcpus if v.state is VCPUState.RUNNING)
        if running:
            self.sim.schedule(max(1, budget // running), self._cap_check, domain)

    def _cap_check(self, domain: Domain) -> None:
        if domain.cap is None or domain in self._parked:
            return
        limit = round(domain.cap * self.config.acct_ns)
        if self._window_consumption(domain) >= limit:
            self._park(domain)
        else:
            self.arm_cap_timer(domain)

    def _park(self, domain: Domain) -> None:
        """Remove all of an over-cap domain's vCPUs from scheduling until
        the next accounting refills its window budget."""
        if domain in self._parked:
            return
        self._parked[domain] = None
        now = self.sim.now
        for vcpu in domain.vcpus:
            if vcpu.state is VCPUState.RUNNING:
                pcpu = vcpu.pcpu
                self._stop_running(vcpu)
                vcpu.set_state(VCPUState.RUNNABLE, now)
                vcpu.priority = Priority.OVER
                self.machine.request_reschedule(pcpu)
            elif vcpu.state is VCPUState.RUNNABLE:
                self._dequeue(vcpu)
        # Parked vCPUs stay RUNNABLE but off the queues; _acct re-admits.

    def _unpark_all(self) -> None:
        for domain in self._parked:
            for vcpu in domain.vcpus:
                if vcpu.state is VCPUState.RUNNABLE and not self._is_queued(vcpu):
                    vcpu.priority = self._base_priority(vcpu)
                    self._enqueue(self._place(vcpu), vcpu)
        self._parked.clear()

    def _is_queued(self, vcpu: VCPU) -> bool:
        return any(vcpu in queue for queue in self.runqueues.values())

    # ------------------------------------------------------------------
    # Tick and accounting
    # ------------------------------------------------------------------
    def _tick(self) -> None:
        now = self.sim.now
        self._tick_count += 1
        # Burn credits of currently running vCPUs incrementally so that
        # priority demotion (UNDER -> OVER) is observed between accountings.
        for pcpu in self.machine.pool:
            vcpu = pcpu.current
            if vcpu is None or vcpu.run_started_at is None:
                continue
            elapsed = now - vcpu.run_started_at
            if elapsed > 0:
                self._burn(vcpu, elapsed)
                vcpu.run_started_at = now
            # Xen demotes BOOST back to UNDER at the first tick it survives.
            if vcpu.boosted:
                vcpu.boosted = False
                vcpu.priority = self._base_priority(vcpu)
                self.machine.request_reschedule(pcpu)
            elif self._base_priority(vcpu) is Priority.OVER and self._has_under_waiter(pcpu):
                # Demoted mid-slice with someone deserving waiting: resched.
                self.machine.request_reschedule(pcpu)
        # Idle-rescue: idle pCPUs re-run their scheduler each tick so they
        # can steal vCPUs stranded behind a busy peer (Xen idlers sleep
        # between tickles; the tick bounds a stranded vCPU's wait).
        backlog = any(queue for queue in self.runqueues.values())
        if backlog:
            for pcpu in self.machine.pool:
                if pcpu.current is None:
                    self.machine.request_reschedule(pcpu)
        ticks_per_acct = self.config.acct_ns // self.config.tick_ns
        if self._tick_count % ticks_per_acct == 0:
            self._acct()
        self.sim.schedule(self.config.tick_ns, self._tick)

    def _has_under_waiter(self, pcpu: "PCPU") -> bool:
        queue = self.runqueues[pcpu]
        return bool(queue) and queue[0].priority <= Priority.UNDER

    def _acct(self) -> None:
        """Distribute one period's credits by weight (csched_acct)."""
        domains = [d for d in self.machine.domains if d.active_vcpus()]
        if not domains:
            return
        if self.config.per_vm_weight:
            weight_of = {d: d.weight for d in domains}
        else:
            # Unmodified Xen 4.5: weight is per-vCPU, so a domain's share
            # shrinks when it freezes vCPUs (the unfairness the paper fixes).
            weight_of = {d: d.weight * len(d.active_vcpus()) for d in domains}
        total_weight = sum(weight_of.values())
        pool_credit = self.config.pcpus * self.config.acct_ns
        acct = self.config.acct_ns
        sanitizer = self.machine.sanitizer
        balances_before = (
            {v: v.credits for d in domains for v in d.active_vcpus()}
            if sanitizer is not None
            else None
        )
        for domain in domains:
            share = pool_credit * weight_of[domain] / total_weight
            active = domain.active_vcpus()
            per_vcpu = share / len(active)
            # One clipped add over the whole domain; requeues read
            # priorities, never credits, so splitting the update from the
            # requeue loop is behaviorally identical to the old
            # interleaved per-vCPU form.
            self.accounting_batch(active, per_vcpu, -acct, acct)
            for vcpu in active:
                if vcpu.state is VCPUState.RUNNABLE and not vcpu.boosted:
                    old = vcpu.priority
                    vcpu.priority = self._base_priority(vcpu)
                    if vcpu.priority != old:
                        self._requeue(vcpu)
            domain.window_consumed_ns = 0
        self._unpark_all()
        for domain in domains:
            if domain.cap is not None:
                self.arm_cap_timer(domain)
        # Promotion may enable preemption on some pCPU.
        for pcpu in self.machine.pool:
            queue = self.runqueues[pcpu]
            if queue and pcpu.current is not None and queue[0].priority < pcpu.current.priority:
                self.machine.request_reschedule(pcpu)
            elif queue and pcpu.current is None:
                self.machine.request_reschedule(pcpu)
        if sanitizer is not None:
            assert balances_before is not None
            sanitizer.check_acct(self, domains, balances_before)
            sanitizer.check_runqueues(self)
            sanitizer.check_machine(self.machine.domains)

    def _requeue(self, vcpu: VCPU) -> None:
        for pcpu, queue in self.runqueues.items():
            if vcpu in queue:
                queue.remove(vcpu)
                self._enqueue(pcpu, vcpu)
                return

    # ------------------------------------------------------------------
    # Introspection for tests and the vScale extension
    # ------------------------------------------------------------------
    def runnable_backlog(self) -> int:
        """Total number of queued (waiting) vCPUs across the pool."""
        return sum(len(q) for q in self.runqueues.values())

    def runqueues_view(self) -> Iterator[tuple[str, list[VCPU]]]:
        for pcpu, queue in self.runqueues.items():
            yield pcpu.name, queue

    def _state_extra(self) -> dict:
        return {
            "tick_count": self._tick_count,
            "parked": sorted(d.name for d in self._parked),
        }
