"""The guest kernel: thread scheduling, ticks, interrupts, load balancing.

This module implements the guest half of the simulated stack.  It hosts the
state that vScale's balancer (Algorithm 2) manipulates:

* per-vCPU runqueues with push/pull SMP load balancing, all of which
  consult ``cpu_freeze_mask``;
* a 1000 Hz scheduler tick with dynamic ticks (suspended while idle);
* futex-style blocking with cross-vCPU reschedule IPIs;
* the migrate-everything-away path a vCPU executes when it finds its bit
  set in the freeze mask.

Execution model
---------------
Thread behaviours are generators yielding primitive actions (see
:mod:`repro.guest.actions`).  The kernel advances the current thread's
action only while the hosting vCPU is *executing* (scheduled on a pCPU by
the hypervisor).  Preemption at either layer pauses the action's countdown;
spin budgets therefore measure on-CPU time, exactly like a real busy-wait.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, TYPE_CHECKING

from repro.guest.actions import (
    Action,
    BlockOn,
    Compute,
    Exit,
    HypercallYield,
    SpinWait,
    UserSpinLock,
    Waitable,
    YieldCPU,
)
from repro.guest.runqueue import RunQueue
from repro.guest.threads import Behavior, Thread, ThreadKind, ThreadState
from repro.hypervisor.domain import VCPU, VCPUState
from repro.hypervisor.irq import IRQ, IRQClass
from repro.metrics.collectors import Counter
from repro.sim.engine import Event
from repro.units import MS, US

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.hypervisor.domain import Domain

# Enum members read on every event, as module constants: on Python 3.11 a
# global load takes ~16 ns, ``VCPUState.FROZEN`` ~155 ns.
_VCPU_BLOCKED = VCPUState.BLOCKED
_VCPU_FROZEN = VCPUState.FROZEN
_THREAD_READY = ThreadState.READY
_THREAD_RUNNING = ThreadState.RUNNING
_THREAD_BLOCKED = ThreadState.BLOCKED
_RESCHED_IPI = IRQClass.RESCHED_IPI
_EVTCHN = IRQClass.EVTCHN
_CALL_IPI = IRQClass.CALL_IPI


@dataclass
class GuestConfig:
    """Tunables of the guest kernel (Linux-flavoured defaults)."""

    #: Scheduler tick period (1000 HZ, as in the paper's guest).
    tick_ns: int = 1 * MS
    #: Fair-scheduler preemption quantum when others are waiting.
    quantum_ns: int = 6 * MS
    #: Guest-level thread context-switch cost.
    ctx_switch_ns: int = 1500
    #: Cost of migrating one thread between runqueues (Table 3: ~1 us).
    migration_cost_ns: int = 1000
    #: Wakeup preemption granularity.
    wakeup_gran_ns: int = 1 * MS
    #: Periodic load balance interval, in ticks.
    lb_interval_ticks: int = 10
    #: Delay for a running spinner to observe a released condition.
    spin_handoff_ns: int = 200
    #: Vruntime credit for waking sleepers (sched_latency analogue).
    sched_latency_ns: int = 6 * MS
    #: Paravirtual spinlocks: kernel-level busy-waiters yield the vCPU
    #: after a bounded spin instead of spinning forever.
    pv_spinlock: bool = False
    #: On-CPU spin budget before a pv-spinlock waiter yields.
    pv_spin_budget_ns: int = 30 * US
    #: Extra bookkeeping for experiments.
    tags: dict = field(default_factory=dict)


class _FreezeMask(set):
    """``cpu_freeze_mask`` that folds coalesced tick chains on every flip.

    While a vCPU's tick chain is virtualized (runnable but off-CPU), the
    chain's fate at each elided tick depends on the freeze condition *at
    that tick's time*.  Folding the chain immediately before any mask
    mutation keeps the condition constant between folds, so evaluating it
    lazily stays exact.
    """

    __slots__ = ("_kernel",)

    def __init__(self, kernel: "GuestKernel"):
        super().__init__()
        self._kernel = kernel

    def add(self, index: int) -> None:
        changed = index not in self
        if changed:
            self._kernel._coalesce_fold(index)
        super().add(index)
        if changed:
            self._kernel._macro_refresh()

    def discard(self, index: int) -> None:
        changed = index in self
        if changed:
            self._kernel._coalesce_fold(index)
        super().discard(index)
        if changed:
            self._kernel._macro_refresh()

    def remove(self, index: int) -> None:
        if index in self:
            self._kernel._coalesce_fold(index)
        super().remove(index)
        self._kernel._macro_refresh()

    def update(self, *others) -> None:
        for other in others:
            for index in other:
                self.add(index)


class GuestKernel:
    """The guest OS of one domain.  Implements ``GuestInterface``."""

    def __init__(self, domain: "Domain", config: GuestConfig | None = None):
        self.domain = domain
        self.machine = domain.machine
        self.sim = self.machine.sim
        self.config = config or GuestConfig()
        n = len(domain.vcpus)
        self.runqueues = [RunQueue(i) for i in range(n)]
        #: vScale's cpu_freeze_mask: vCPU indices the balancer froze.  All
        #: runqueue selection and pull balancing consults this.
        self.cpu_freeze_mask: set[int] = _FreezeMask(self)
        #: Set per-vCPU while the hypervisor has it on a pCPU.
        self._executing = [False] * n
        #: In-flight action-completion events, per vCPU.
        self._action_events: list[Event | None] = [None] * n
        #: Action start timestamps (to account partial progress on pause).
        self._action_started: list[int | None] = [None] * n
        #: Tick events, per vCPU (armed while the vCPU has work).
        self._tick_events: list[Event | None] = [None] * n
        #: Coalesced (virtualized) tick chains: due time of the next elided
        #: tick for a runnable-but-off-CPU vCPU, or None.  See _coalesce_fold.
        self._tick_virtual: list[int | None] = [None] * n
        #: Order key of each vCPU's tick chain: the rank drawn when the
        #: chain (re)started and the instant it armed its first tick (see
        #: _tick_key).
        self._tick_rank = [0] * n
        self._tick_armed = [0] * n
        #: Due time of the next elided on-CPU tick per vCPU with an open
        #: macro region (see _macro_horizon), or None.
        self._macro_due: list[int | None] = [None] * n
        #: vCPUs with an open macro region.
        self._macro_active: set[int] = set()
        #: vCPU index currently executing kernel code, for IPI attribution.
        self._context: int | None = None
        #: Migration work pending on a freezing vCPU (thread list).
        self._freeze_migration: dict[int, Event] = {}
        #: vCPUs with a deferred wakeup-preemption check queued.
        self._preempt_pending: set[int] = set()
        self.threads: list[Thread] = []
        #: Per-vCPU virtual timer interrupt counters (Table 2).  Every
        #: counted tick, fired or folded, bumps its vCPU's counter, so the
        #: tick handler also reads it for the load-balance interval.
        self.timer_interrupts = [Counter() for _ in range(n)]
        #: Per-vCPU sent reschedule IPI counters.
        self.ipi_sent = [Counter() for _ in range(n)]
        #: Observers invoked when a thread exits (workload harnesses).
        self.exit_listeners: list[Callable[[Thread], None]] = []
        self._spawn_rr = 0
        domain.attach_guest(self)
        self._create_percpu_kthreads()

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def _create_percpu_kthreads(self) -> None:
        """Materialize the non-migratable servants of Figure 3.

        They exist so the freeze path has something it must *not* migrate;
        they stay quiescent (never READY) unless a test pokes them.
        """
        self.percpu_kthreads: list[list[Thread]] = []
        for i in range(len(self.runqueues)):
            servants = []
            for name in ("ksoftirqd", "kworker"):
                thread = Thread(
                    self,
                    behavior=iter(()),
                    name=f"{name}/{i}",
                    kind=ThreadKind.KTHREAD_PERCPU,
                )
                thread.vcpu_index = i
                thread.state = ThreadState.BLOCKED
                servants.append(thread)
            self.percpu_kthreads.append(servants)

    def spawn(
        self,
        behavior: Behavior,
        name: str,
        kind: ThreadKind = ThreadKind.UTHREAD,
        rt: bool = False,
        pinned_to: int | None = None,
    ) -> Thread:
        """Create a thread and place it (fork balance)."""
        thread = Thread(self, behavior, name, kind=kind, rt=rt)
        thread.pinned_to = pinned_to
        self.threads.append(thread)
        target = self._select_rq(thread, reason="fork")
        rq = self.runqueues[target]
        thread.vruntime = max(thread.vruntime, rq.min_vruntime)
        rq.enqueue(thread)
        self._macro_refresh()  # the enqueue changed loads everywhere
        sanitizer = self.machine.sanitizer
        if sanitizer is not None:
            sanitizer.check_thread_placement(self, thread, target)
        if self.machine.started:
            self._kick_vcpu(target)
        return thread

    # ------------------------------------------------------------------
    # GuestInterface (hypervisor downcalls)
    # ------------------------------------------------------------------
    def vcpu_started(self, vcpu: VCPU) -> None:
        i = vcpu.index
        self._executing[i] = True
        self._ensure_tick(i)
        self._dispatch(i)

    def vcpu_stopped(self, vcpu: VCPU) -> None:
        i = vcpu.index
        if not self._executing[i]:
            return
        self._pause_current_action(i)
        self._executing[i] = False
        if i in self._macro_active:
            # Open region: convert it straight into an off-CPU virtual
            # chain whose next tick is the region's first unfired one.
            self._macro_fold(i, self._macro_limit(i))
            self._tick_virtual[i] = self._macro_due[i]
            self._macro_due[i] = None
            self._macro_active.discard(i)
            event = self._tick_events[i]
            if event is not None:
                event.cancel()
                self._tick_events[i] = None
            return
        # Virtualize the tick chain while the vCPU waits for a pCPU:
        # off-CPU ticks only bump interrupt counters, so they can be
        # folded in arithmetically when the vCPU resumes.
        event = self._tick_events[i]
        if event is not None:
            self._tick_virtual[i] = event.time
            event.cancel()
            self._tick_events[i] = None

    def deliver_irq(self, vcpu: VCPU, irq: IRQ) -> None:
        i = vcpu.index
        previous_context = self._context
        self._context = i
        try:
            if irq.irq_class is _RESCHED_IPI:
                if i in self.cpu_freeze_mask and i not in self._freeze_migration:
                    self._start_freeze_migration(i)
                else:
                    self._dispatch(i)
            elif irq.irq_class is _EVTCHN:
                channel = irq.channel
                if channel is not None and channel.handler is not None:
                    channel.handler(irq.payload)
                self._dispatch(i)
            elif irq.irq_class is _CALL_IPI:
                # smp_call_function: only the shutdown path uses this; the
                # handler itself is a no-op for our workloads.
                self._dispatch(i)
        finally:
            self._context = previous_context

    # ------------------------------------------------------------------
    # Dispatch: elect and advance the current thread of a vCPU
    # ------------------------------------------------------------------
    def _dispatch(self, i: int) -> None:
        """Ensure vCPU ``i`` is doing the right thing right now."""
        if not self._executing[i]:
            return
        if i in self._freeze_migration:
            return  # busy evicting threads; nothing else may run here
        rq = self.runqueues[i]
        if rq.current is not None:
            if self._action_events[i] is None and self._action_started[i] is None:
                self._advance(i)
            else:
                self._maybe_preempt_current(i)
            return
        nxt = rq.pick_next()
        if nxt is None:
            # idle_balance(): try to pull work before parking the vCPU.
            if self.idle_balance(i) is not None:
                nxt = rq.pick_next()
        if nxt is None:
            self._go_idle(i)
            return
        rq.dequeue(nxt)
        rq.current = nxt
        rq.picked_at = self.sim.now
        rq.pending_overhead_ns += self.config.ctx_switch_ns
        nxt.state = _THREAD_RUNNING
        self._advance(i)

    def _go_idle(self, i: int) -> None:
        """No runnable threads: dynticks off, park (or finish freezing)."""
        self._cancel_tick(i)
        self._executing[i] = False
        # hyp_block() triggers vcpu_stopped via the scheduler; mark the
        # executing flag first so the stop path does not double-account.
        self.machine.hyp_block(self.domain.vcpus[i])

    def _advance(self, i: int) -> None:
        """Advance the current thread: begin/resume its in-flight action."""
        rq = self.runqueues[i]
        thread = rq.current
        assert thread is not None and self._executing[i]
        if thread.action is None:
            # Thread code (sync primitives, wakes) runs in this vCPU's
            # context: wakes it performs are attributed to vCPU i so
            # cross-vCPU ones ride reschedule IPIs.
            previous_context = self._context
            self._context = i
            try:
                thread.action = thread.behavior.send(thread.send_value)
            except StopIteration:
                self._thread_done(i, thread)
                return
            finally:
                self._context = previous_context
            thread.send_value = None
        action = thread.action
        # Compute first: threads yield it more than any other action.
        if isinstance(action, Compute):
            self._begin_timed(i, thread, action.remaining_ns, outcome=None)
        elif isinstance(action, Exit):
            self._thread_done(i, thread)
        elif isinstance(action, YieldCPU):
            thread.action = None
            self._switch_out(i, to_ready=True)
            self._dispatch(i)
        elif isinstance(action, HypercallYield):
            thread.action = None
            self.machine.hyp_yield(self.domain.vcpus[i])
        elif isinstance(action, BlockOn):
            self._ensure_waitable(action.waitable)
            thread.action = None
            if action.waitable.latched:
                self._advance(i)  # already fired: do not sleep
                return
            thread.state = _THREAD_BLOCKED
            action.waitable.add_blocked(thread)
            rq.current = None
            rq.advance_min_vruntime()
            self._macro_refresh_one(i)
            self._dispatch(i)
        elif isinstance(action, SpinWait):
            self._begin_spin(i, thread, action)
        else:
            raise TypeError(f"unknown action {action!r} from {thread.name}")

    def _begin_timed(self, i: int, thread: Thread, duration_ns: int, outcome: object) -> None:
        rq = self.runqueues[i]
        total = rq.pending_overhead_ns + duration_ns
        self._action_started[i] = self.sim.now
        self._action_events[i] = self.sim.schedule(total, self._action_done, i, thread, outcome)

    def _begin_spin(self, i: int, thread: Thread, action: SpinWait) -> None:
        self._ensure_waitable(action.waitable)
        waitable = action.waitable
        if waitable.latched:
            action.fired = True
        if thread not in waitable.spinners:
            waitable.add_spinner(thread)
        # A released user spin lock is grabbed by the first spinner to run.
        if not action.fired and isinstance(waitable, UserSpinLock):
            if waitable.on_spinner_resumed(thread):
                action.fired = True
        if action.fired:
            waitable.remove_spinner(thread)
            self._begin_timed(i, thread, self.config.spin_handoff_ns, outcome=True)
            return
        if action.budget_ns <= 0:
            waitable.remove_spinner(thread)
            self._begin_timed(i, thread, 0, outcome=False)
            return
        self._action_started[i] = self.sim.now
        rq = self.runqueues[i]
        total = rq.pending_overhead_ns + action.budget_ns
        self._action_events[i] = self.sim.schedule(total, self._spin_timeout, i, thread, action)

    def _action_done(self, i: int, thread: Thread, outcome: object) -> None:
        rq = self.runqueues[i]
        assert rq.current is thread
        self._account_progress(i, finished=True)
        thread.action = None
        thread.send_value = outcome
        self._advance(i)

    def _spin_timeout(self, i: int, thread: Thread, action: SpinWait) -> None:
        rq = self.runqueues[i]
        assert rq.current is thread
        self._account_progress(i, finished=True)
        action.waitable.remove_spinner(thread)
        action.budget_ns = 0
        thread.action = None
        thread.send_value = action.fired  # a last-instant fire still wins
        self._advance(i)

    def _thread_done(self, i: int, thread: Thread) -> None:
        rq = self.runqueues[i]
        thread.state = ThreadState.DONE
        thread.action = None
        if rq.current is thread:
            rq.current = None
            rq.advance_min_vruntime()
        self._macro_refresh_one(i)
        for listener in self.exit_listeners:
            listener(thread)
        self._dispatch(i)

    # ------------------------------------------------------------------
    # Pausing and accounting
    # ------------------------------------------------------------------
    def _account_progress(self, i: int, finished: bool) -> None:
        """Fold on-CPU time since action start into the thread's accounting
        and — when pausing — into the action's remaining budget."""
        started = self._action_started[i]
        rq = self.runqueues[i]
        thread = rq.current
        if started is None or thread is None:
            return
        elapsed = self.sim.now - started
        self._action_started[i] = None
        event = self._action_events[i]
        if event is not None:
            event.cancel()
            self._action_events[i] = None
        # Overhead (context switch / migration) burns first.
        overhead_used = min(elapsed, rq.pending_overhead_ns)
        rq.pending_overhead_ns -= overhead_used
        work = elapsed - overhead_used
        thread.exec_ns += elapsed
        thread.vruntime += elapsed
        rq.advance_min_vruntime()
        if finished:
            rq.pending_overhead_ns = 0
            return
        action = thread.action
        if isinstance(action, Compute):
            action.remaining_ns = max(0, action.remaining_ns - work)
        elif isinstance(action, SpinWait):
            action.budget_ns = max(0, action.budget_ns - work)

    def _pause_current_action(self, i: int) -> None:
        self._account_progress(i, finished=False)

    def _switch_out(self, i: int, to_ready: bool) -> None:
        """Move the current thread off the CPU (to ready or nowhere)."""
        rq = self.runqueues[i]
        thread = rq.current
        if thread is None:
            return
        self._pause_current_action(i)
        rq.current = None
        if to_ready:
            thread.state = _THREAD_READY
            rq.enqueue(thread)
        rq.advance_min_vruntime()
        if to_ready:
            self._macro_refresh()  # new steal candidate for siblings
        else:
            self._macro_refresh_one(i)

    # ------------------------------------------------------------------
    # Wakeups and runqueue selection (all consult the freeze mask)
    # ------------------------------------------------------------------
    def wake_thread(self, thread: Thread) -> None:
        """Make a blocked thread runnable (futex wake / IO completion).

        Sends a reschedule IPI when the chosen runqueue belongs to another
        vCPU — the paper's Figure 1(b) delay happens exactly here when that
        vCPU is preempted.
        """
        if thread.state is not _THREAD_BLOCKED:
            return
        target = self._select_rq(thread, reason="wakeup")
        rq = self.runqueues[target]
        floor = rq.min_vruntime - self.config.sched_latency_ns
        thread.vruntime = max(thread.vruntime, floor)
        thread.state = _THREAD_READY
        rq.enqueue(thread)
        self._macro_refresh()  # the enqueue changed loads everywhere
        sanitizer = self.machine.sanitizer
        if sanitizer is not None:
            sanitizer.check_thread_placement(self, thread, target)
        waker = self._context
        if waker is not None and waker == target:
            self._maybe_preempt_current(target)
        else:
            self._send_resched_ipi(waker, target)

    def spin_satisfied(self, thread: Thread, waitable: Waitable) -> None:
        """A waitable fired for a spinning thread."""
        action = thread.action
        if not isinstance(action, SpinWait) or action.waitable is not waitable:
            return
        action.fired = True
        waitable.remove_spinner(thread)
        i = thread.vcpu_index
        assert i is not None
        rq = self.runqueues[i]
        if rq.current is thread and self._action_events[i] is not None:
            # Actively spinning right now: observe the release immediately.
            self._account_progress(i, finished=False)
            self._begin_timed(i, thread, self.config.spin_handoff_ns, outcome=True)
        # Otherwise the fired flag is honoured when the thread resumes.

    def thread_is_executing(self, thread: Thread) -> bool:
        i = thread.vcpu_index
        if i is None:
            return False
        return self._executing[i] and self.runqueues[i].current is thread

    def _select_rq(self, thread: Thread, reason: str) -> int:
        """select_task_rq(): pick a runqueue for a waking/forked thread."""
        if thread.pinned_to is not None:
            return thread.pinned_to
        candidates = [
            i for i in range(len(self.runqueues)) if i not in self.cpu_freeze_mask
        ]
        if not candidates:
            raise RuntimeError("all vCPUs frozen — vCPU0 must stay online")
        prev = thread.vcpu_index
        if prev in candidates and self.runqueues[prev].load() == 0:
            return prev
        idle = [i for i in candidates if self.runqueues[i].load() == 0]
        if idle:
            if reason == "fork":
                # Round-robin forks over idle CPUs to spread initial load.
                choice = idle[self._spawn_rr % len(idle)]
                self._spawn_rr += 1
                return choice
            return idle[0]
        return min(candidates, key=lambda i: (self.runqueues[i].load(), i))

    def _maybe_preempt_current(self, i: int) -> None:
        """Request a wakeup-preemption check on vCPU ``i``.

        Deferred through a zero-delay event: the check may be triggered
        from inside a thread's own behaviour (a wake to the local vCPU),
        and switching the current thread out synchronously there would
        corrupt the in-progress generator advance.
        """
        if i in self._preempt_pending:
            return
        self._preempt_pending.add(i)
        self.sim.schedule(0, self._do_preempt_check, i)

    def _do_preempt_check(self, i: int) -> None:
        self._preempt_pending.discard(i)
        if not self._executing[i]:
            return
        rq = self.runqueues[i]
        if rq.current is None:
            self._dispatch(i)
            return
        best = rq.pick_next()
        if best is None:
            return
        current = rq.current
        if current.nonpreemptible:
            return  # preempt_disable(): spinlock section in progress
        should_preempt = (best.rt and not current.rt) or (
            not current.rt
            and best.vruntime + self.config.wakeup_gran_ns < current.vruntime
        )
        if should_preempt:
            self._switch_out(i, to_ready=True)
            self._dispatch(i)

    def _send_resched_ipi(self, waker: int | None, target: int) -> None:
        dst = self.domain.vcpus[target]
        if waker is None:
            # External context (device completion, timer): no guest vCPU is
            # the sender; wake the vCPU directly if it sleeps.
            if dst.state is _VCPU_BLOCKED:
                self.machine.hyp_wake(dst)
            return
        src = self.domain.vcpus[waker]
        self.ipi_sent[waker].inc()
        self.machine.hyp_send_ipi(src, dst, _RESCHED_IPI)

    def _kick_vcpu(self, i: int) -> None:
        """After enqueueing work on vCPU i from outside, make sure it runs."""
        vcpu = self.domain.vcpus[i]
        if self._context is not None and self._context != i:
            self._send_resched_ipi(self._context, i)
        elif vcpu.state is _VCPU_BLOCKED:
            self.machine.hyp_wake(vcpu)
        elif self._executing[i]:
            self._maybe_preempt_current(i)

    # ------------------------------------------------------------------
    # Scheduler tick (1000 HZ) and periodic load balancing
    # ------------------------------------------------------------------
    def _ensure_tick(self, i: int) -> None:
        if self._tick_virtual[i] is not None:
            # Materialize the coalesced chain: fold the ticks that elapsed
            # while off-CPU, then re-arm a real event preserving the phase
            # (unless the chain died frozen/idle, in which case a fresh
            # chain starts below — exactly what the real chain would do).
            self._coalesce_fold(i)
            due = self._tick_virtual[i]
            if due is not None:
                self._tick_virtual[i] = None
                self._start_chain(i, due)
                return
        if self._tick_events[i] is None and i not in self._macro_active:
            self._start_chain(i, self.sim.now + self.config.tick_ns)

    def _start_chain(self, i: int, due: int) -> None:
        """(Re)start vCPU ``i``'s tick chain, first tick due at ``due``.

        The chain's rank is drawn now, where scheduling its first tick
        would have drawn that tick's seq, so every tick of the chain sorts
        among same-instant events as the per-tick chain's would.
        """
        self._tick_rank[i] = self.sim.next_seq()
        self._tick_armed[i] = self.sim.now
        self._arm_tick(i, due)

    def _arm_tick(self, i: int, due: int) -> None:
        """Arm the tick chain of vCPU ``i``, next tick due at ``due``.

        This is where on-CPU elision regions open: when every tick from
        ``due`` up to (but excluding) some horizon is provably a pure
        counter bump, those ticks are elided and only the horizon tick is
        scheduled as a real event (none at all for an infinite horizon).
        """
        rq = self.runqueues[i]
        # Most ticks land on a vCPU with ready threads or none running,
        # where no region can open: skip the horizon call for them.
        if rq.current is not None and not rq.ready:
            horizon = self._macro_horizon(i, due)
            if horizon != due:
                self._macro_due[i] = due
                self._macro_active.add(i)
                self._tick_events[i] = (
                    None if horizon is None else self._schedule_tick(i, horizon)
                )
                return
        # _schedule_tick, inlined (once per tick that fires).  Callers arm
        # the next tick from a tick or a chain start, so its born is now.
        sim = self.sim
        sim.order_key = (sim.now, self._tick_rank[i])
        self._tick_events[i] = sim.schedule_at(due, self._tick, i)

    def _tick_key(self, i: int, due: int) -> tuple[int, int]:
        """``(born, seq)`` of vCPU ``i``'s tick due at ``due``.

        The per-tick chain arms the tick due at T from the tick at
        T - tick_ns (or, for the chain's first tick, at its arming
        instant), so that is the tick's ``born``; its ``seq`` is the
        chain's rank.  A tick scheduled after elided ones therefore sorts
        exactly where the per-tick chain would have put it.
        """
        born = due - self.config.tick_ns
        armed = self._tick_armed[i]
        return (born if born > armed else armed, self._tick_rank[i])

    def _schedule_tick(self, i: int, due: int) -> Event:
        sim = self.sim
        sim.order_key = self._tick_key(i, due)
        return sim.schedule_at(due, self._tick, i)

    def _tick_fired(self, i: int, due: int) -> bool:
        """Whether vCPU ``i``'s tick due at ``due`` (== now) sorts before
        the event being dispatched, i.e. would already have fired."""
        current = self.sim.current
        if current is None:
            return True  # every event up to now has fired
        return self._tick_key(i, due) < (current.born, current.seq)

    def _macro_horizon(self, i: int, due: int) -> int | None:
        """First tick time >= ``due`` whose handler could do real work.

        Returns ``due`` itself when no region can open, a later grid time
        when the first interesting tick is further out, or None when *no*
        future tick can matter (infinite horizon).

        Regions open only on an executing vCPU running a lone thread with
        an empty ready queue and no freeze bit (an executing vCPU is never
        FROZEN, and a freeze migration leaves no thread current).
        Its tick handler then cannot preempt (the slice check needs a ready
        thread) or kick an idle sibling (that needs a load of two); only
        the periodic load balance can act, every ``lb_interval_ticks``
        ticks, when a sibling queue is busy enough to steal from.

        That test asks whether *any* sibling has a load of three and a
        stealable thread, not only the busiest one the balance will pick.
        A block or exit refreshes only its own vCPU's region, yet it can
        make a sibling with stealable threads the busiest; the any-sibling
        answer cannot turn true on a load decrease, so a horizon kept
        across one is never late.

        The proof obligation: between region open and the first mutation of
        any input read below, every elided tick's handler reduces to the
        counter bumps `_macro_fold` applies.  All inputs are guarded by
        `_macro_refresh` calls at their mutation sites.
        """
        rq = self.runqueues[i]
        if (
            rq.current is None
            or rq.ready
            or not self._executing[i]
            or i in self.cpu_freeze_mask
        ):
            return due
        # Periodic balance pulls when the busiest queue leads this one
        # (load 1) by two or more and holds a stealable thread; any such
        # sibling is, or can become, the busiest (see above).
        for j, sibling in enumerate(self.runqueues):
            if (
                j != i
                and len(sibling.ready) + (1 if sibling.current else 0) >= 3
                and sibling.steal_candidates()
            ):
                lb = self.config.lb_interval_ticks
                m = (-self.timer_interrupts[i].value) % lb or lb  # pre-increments
                return due + (m - 1) * self.config.tick_ns
        return None

    def _macro_limit(self, i: int) -> int:
        """Latest due time an open region of vCPU ``i`` may fold now: its
        horizon tick is a real event and counts itself when it fires."""
        now = self.sim.now
        event = self._tick_events[i]
        if event is None or event.time > now:
            return now
        return event.time - 1

    def _macro_fold(self, i: int, limit: int) -> None:
        """Fold the elided ticks of an open region due at or before
        ``limit``.  A tick due exactly now counts only if it would already
        have fired (see _tick_fired)."""
        due = self._macro_due[i]
        if due is None or due > limit:
            return
        period = self.config.tick_ns
        ticks = (limit - due) // period + 1
        last = due + (ticks - 1) * period
        if last == self.sim.now and not self._tick_fired(i, last):
            ticks -= 1
            if not ticks:
                return
        self.timer_interrupts[i].inc(ticks)
        self._macro_due[i] = due + ticks * period

    def _macro_refresh(self) -> None:
        """Re-evaluate every open region after a state mutation.

        Call *after* mutating any `_macro_horizon` input.  `_macro_fold`
        is an unconditional counter bump over a fixed grid, so fold order
        relative to the mutation cannot matter; the horizon, however, must
        be recomputed against the post-mutation world.  Unchanged horizons
        keep their scheduled event (the common case — zero queue traffic),
        moved ones re-arm, and a region whose very next tick became
        interesting closes with a real tick at that due time — at this
        very instant when that tick has not fired yet.
        """
        if not self._macro_active:
            return
        for i in sorted(self._macro_active):
            self._macro_refresh_region(i)

    def _macro_refresh_one(self, i: int) -> None:
        """Re-evaluate vCPU ``i``'s open region after a mutation whose
        horizon effects are confined to that region.

        A mutation may use this (or skip refreshing entirely) when, for
        every *other* open region, it can only lengthen the true horizon
        — a kept-but-stale shorter horizon is safe: the real tick fires
        early, does nothing, and re-arms with the longer region.  Only
        mutations that can *shorten* another region's horizon (enqueues
        raising a load, unpinning) need the global `_macro_refresh`.
        """
        if i in self._macro_active:
            self._macro_refresh_region(i)

    def _macro_refresh_region(self, i: int) -> None:
        self._macro_fold(i, self._macro_limit(i))
        event = self._tick_events[i]
        due = self._macro_due[i]
        horizon = self._macro_horizon(i, due)
        if horizon == due:
            self._macro_due[i] = None
            self._macro_active.discard(i)
            if event is not None:
                event.cancel()
            self._tick_events[i] = self._schedule_tick(i, due)
        elif horizon is None:
            if event is not None:
                event.cancel()
                self._tick_events[i] = None
        elif event is None or event.time != horizon:
            if event is not None:
                event.cancel()
            self._tick_events[i] = self._schedule_tick(i, horizon)

    def _cancel_tick(self, i: int) -> None:
        if i in self._macro_active:
            self._macro_fold(i, self._macro_limit(i))
            self._macro_active.discard(i)
        self._macro_due[i] = None
        self._tick_virtual[i] = None
        event = self._tick_events[i]
        if event is not None:
            event.cancel()
            self._tick_events[i] = None

    def _coalesce_fold(self, i: int) -> None:
        """Bring vCPU ``i``'s virtualized tick chain up to date.

        Replays the ticks that fell due since the chain was virtualized,
        with exactly the effects the real (off-CPU) tick handler has: the
        frozen branch kills the chain without counting, the dynticks branch
        kills it too, and otherwise the tick bumps the interrupt counters
        and re-arms one period later.  Callers must invoke this *before*
        mutating any state the off-CPU tick consults (freeze mask, FROZEN
        transitions), so the condition seen here is the one that held at
        every elided tick time.  A tick falling exactly on the mutation
        instant resolves tick-first, matching the event ordering of a
        chain re-armed a full period earlier.
        """
        due = self._tick_virtual[i]
        now = self.sim.now
        if due is None or due > now:
            return
        vcpu = self.domain.vcpus[i]
        if vcpu.state is _VCPU_FROZEN or i in self.cpu_freeze_mask:
            self._tick_virtual[i] = None
            return
        rq = self.runqueues[i]
        if rq.current is None and not rq.ready:
            self._tick_virtual[i] = None
            return
        period = self.config.tick_ns
        ticks = (now - due) // period + 1
        self.timer_interrupts[i].inc(ticks)
        self._tick_virtual[i] = due + ticks * period

    def sync_ticks(self) -> None:
        """Fold every vCPU's elided ticks, for mid-run counter readers.

        Open regions are folded up to the ticks that already fired but
        stay open: reading a counter is not a horizon input, so the region
        conditions still hold afterwards.
        """
        for i in range(len(self.runqueues)):
            self._coalesce_fold(i)
            if i in self._macro_active:
                self._macro_fold(i, self._macro_limit(i))

    def vcpu_frozen_edge(self, vcpu: VCPU) -> None:
        """Hypervisor hook: ``vcpu`` is about to enter or leave FROZEN."""
        self._coalesce_fold(vcpu.index)

    def _tick(self, i: int) -> None:
        """One virtual timer interrupt on vCPU i.

        Fires while the vCPU has work (running *or* waiting for a pCPU:
        pending timer events are delivered when it runs); dynamic ticks stop
        it entirely while idle or frozen.  Scheduler work happens only when
        the vCPU is actually executing.
        """
        self._tick_events[i] = None
        if i in self._macro_active:
            # This is the horizon tick of an open region: fold the elided
            # ticks strictly before now (this tick counts itself below).
            self._macro_fold(i, self.sim.now - 1)
            self._macro_due[i] = None
            self._macro_active.discard(i)
        vcpu = self.domain.vcpus[i]
        if vcpu.state is _VCPU_FROZEN or i in self.cpu_freeze_mask:
            if (
                self.machine.faults is not None
                and vcpu.state is not _VCPU_FROZEN
                and self._executing[i]
                and i not in self._freeze_migration
            ):
                # Recovery for a lost freeze IPI: the mask says "migrate
                # away" but the kick never arrived.  Like mainline's
                # scheduler noticing !cpu_active(cpu) on its own tick, the
                # timer path starts the eviction — one tick late instead
                # of never.
                previous_context = self._context
                self._context = i
                try:
                    self._start_freeze_migration(i)
                finally:
                    self._context = previous_context
            return  # frozen vCPUs are skipped (clocksource watchdog too)
        rq = self.runqueues[i]
        if rq.current is None and not rq.ready:
            return  # went idle; dynticks
        ticks = self.timer_interrupts[i]
        ticks.value += 1
        if self._executing[i]:
            previous_context = self._context
            self._context = i
            try:
                self._tick_preemption(i)
                if ticks.value % self.config.lb_interval_ticks == 0:
                    self._periodic_balance(i)
                self._nohz_kick(i)
            finally:
                self._context = previous_context
        self._arm_tick(i, self.sim.now + self.config.tick_ns)

    def _tick_preemption(self, i: int) -> None:
        """CFS-style slice check: with N runnable threads each gets about
        ``sched_latency / N``, floored at quantum/8 — so a busy-spinning
        thread packed with others cannot starve its runqueue."""
        rq = self.runqueues[i]
        current = rq.current
        if current is None:
            self._dispatch(i)
            return
        if current.rt or current.nonpreemptible or not rq.ready:
            return
        config = self.config
        ideal = config.sched_latency_ns // (len(rq.ready) + 1)
        floor = config.quantum_ns // 8
        if ideal < floor:
            ideal = floor
        ran = self.sim.now - rq.picked_at
        if ran < ideal:
            # A thread inside its slice is preempted only when it leads
            # the best fair ready thread by more than a slice, and only
            # after a full tick on the CPU: the one case pick_next() is
            # needed.
            if ran < config.tick_ns:
                return
            best = rq.pick_next()
            if best is None or best.rt or current.vruntime - best.vruntime <= ideal:
                return
        self._switch_out(i, to_ready=True)
        self._dispatch(i)

    # ------------------------------------------------------------------
    # Load balancing (idle + periodic pull), freeze-mask aware
    # ------------------------------------------------------------------
    def idle_balance(self, i: int) -> Thread | None:
        """Pull one thread from the busiest runqueue (disabled when frozen)."""
        if i in self.cpu_freeze_mask:
            return None
        busiest = self._busiest_rq(exclude=i)
        if busiest is None or busiest.load() < 2:
            return None
        candidates = busiest.steal_candidates()
        if not candidates:
            return None
        thread = candidates[0]
        self._migrate(thread, busiest.index, i, charge_to=i)
        return thread

    def _periodic_balance(self, i: int) -> None:
        rq = self.runqueues[i]
        busiest = self._busiest_rq(exclude=i)
        if busiest is None:
            return
        if busiest.load() - rq.load() >= 2:
            candidates = busiest.steal_candidates()
            if candidates:
                self._migrate(candidates[0], busiest.index, i, charge_to=i)
                self._dispatch(i)

    def _nohz_kick(self, i: int) -> None:
        """Linux's nohz idle-balance kick: a busy CPU whose queue holds
        more than one runnable thread wakes one idle sibling so it can
        pull (idle_balance) on resume."""
        rq = self.runqueues[i]
        if not rq.ready or (rq.current is None and len(rq.ready) < 2):
            return  # load below two
        runqueues = self.runqueues
        mask = self.cpu_freeze_mask
        if len(mask) - (i in mask) == len(runqueues) - 1:
            return  # every sibling frozen: vScale's packed state
        vcpus = self.domain.vcpus
        for j, sibling in enumerate(runqueues):
            if (
                j != i
                and sibling.current is None
                and not sibling.ready
                and j not in mask
                and vcpus[j].state is _VCPU_BLOCKED
            ):
                self.machine.hyp_wake(vcpus[j])
                return

    def _busiest_rq(self, exclude: int) -> RunQueue | None:
        best: RunQueue | None = None
        for rq in self.runqueues:
            if rq.index == exclude:
                continue
            if best is None or rq.load() > best.load():
                best = rq
        return best

    def _migrate(self, thread: Thread, src: int, dst: int, charge_to: int) -> None:
        """Move a ready thread between runqueues, charging the migration
        cost to whichever vCPU performs the pull/push."""
        rq_src = self.runqueues[src]
        rq_dst = self.runqueues[dst]
        rq_src.dequeue(thread)
        thread.vruntime = max(
            rq_dst.min_vruntime - self.config.sched_latency_ns, thread.vruntime
        )
        rq_dst.enqueue(thread)
        thread.migrations += 1
        tracer = self.machine.tracer
        if tracer.enabled_for("guest"):
            tracer.emit(
                self.sim.now, "guest", "migrate",
                f"{self.domain.name}/{thread.name}", src=src, dst=dst,
            )
        self.runqueues[charge_to].pending_overhead_ns += self.config.migration_cost_ns
        self._macro_refresh()

    # ------------------------------------------------------------------
    # Freeze-side thread eviction (Algorithm 2, target vCPU)
    # ------------------------------------------------------------------
    def _start_freeze_migration(self, i: int) -> None:
        """The target vCPU noticed its freeze bit: evict everything.

        Migration costs ~1 us per thread of target-vCPU time; the threads
        are moved (and destination vCPUs kicked) once that work completes,
        then the vCPU idles into the FROZEN state via the block path.
        """
        rq = self.runqueues[i]
        self._switch_out(i, to_ready=True)
        movable = [t for t in rq.ready if t.migratable and not t.done]
        cost = self.config.migration_cost_ns * max(1, len(movable))
        event = self.sim.schedule(cost, self._finish_freeze_migration, i)
        self._freeze_migration[i] = event

    def _finish_freeze_migration(self, i: int) -> None:
        self._freeze_migration.pop(i, None)
        rq = self.runqueues[i]
        previous_context = self._context
        self._context = i
        try:
            # Insertion-ordered dict, not a set: the kick order below feeds
            # IPI event ordering and must be deterministic across runs.
            targets: dict[int, None] = {}
            tracer = self.machine.tracer
            for thread in list(rq.ready):
                if not thread.migratable:
                    continue
                dst = self._select_rq(thread, reason="wakeup")
                rq.dequeue(thread)
                self.runqueues[dst].enqueue(thread)
                thread.migrations += 1
                if tracer.enabled_for("guest"):
                    tracer.emit(
                        self.sim.now, "guest", "migrate",
                        f"{self.domain.name}/{thread.name}", src=i, dst=dst,
                    )
                targets[dst] = None
            for dst in sorted(targets):
                self._kick_vcpu(dst)
            # Redirect event channels bound here (I/O interrupt migration).
            for channel in self.domain.event_channels:
                if channel.bound_vcpu == i:
                    candidates = [
                        c for c in range(len(self.runqueues)) if c not in self.cpu_freeze_mask
                    ]
                    channel.rebind(candidates[0])
        finally:
            self._context = previous_context
        self._macro_refresh()
        sanitizer = self.machine.sanitizer
        if sanitizer is not None:
            sanitizer.check_freeze_migration(self, i)
        self._dispatch(i)  # rq now empty (or non-migratables only) -> idle -> frozen

    # ------------------------------------------------------------------
    # Helpers for sync primitives and workloads
    # ------------------------------------------------------------------
    def _ensure_waitable(self, waitable: Waitable) -> None:
        if waitable.kernel is None:
            waitable.kernel = self
        elif waitable.kernel is not self:
            raise RuntimeError("waitable shared between guests")

    def repin_thread(self, thread: Thread, vcpu_index: int) -> bool:
        """Pin a READY thread to a vCPU, moving it there immediately.

        Returns False when the thread is running/blocked/done (it will be
        placed on the target by the next wakeup instead).  Used by tests
        and micro-benchmarks that need a deterministic thread layout.
        """
        if not 0 <= vcpu_index < len(self.runqueues):
            raise ValueError(f"no vCPU {vcpu_index}")
        thread.pinned_to = vcpu_index
        if thread.state is not ThreadState.READY:
            return False
        src = thread.vcpu_index
        if src == vcpu_index:
            return True
        self._migrate(thread, src, vcpu_index, charge_to=vcpu_index)
        if self.machine.started:
            self._kick_vcpu(vcpu_index)
        return True

    def start_timer(self, delay_ns: int, waitable: Waitable) -> Event:
        """Fire ``waitable`` for everyone after a wall-clock delay."""
        self._ensure_waitable(waitable)
        return self.sim.schedule(delay_ns, self._timer_fire, waitable)

    def _timer_fire(self, waitable: Waitable) -> None:
        previous_context = self._context
        self._context = None  # external context: no IPI attribution
        try:
            waitable.fire_all()
        finally:
            self._context = previous_context

    @property
    def online_vcpus(self) -> int:
        """What the guest's cpu_online_mask reports (excludes frozen)."""
        return len(self.runqueues) - len(self.cpu_freeze_mask)

    def current_vcpu_index(self) -> int | None:
        """The vCPU whose context the kernel is currently executing in."""
        return self._context

    def run_in_context(self, i: int, fn: Callable[[], object]) -> object:
        """Execute ``fn`` attributed to vCPU ``i`` (used by the balancer)."""
        previous_context = self._context
        self._context = i
        try:
            return fn()
        finally:
            self._context = previous_context
