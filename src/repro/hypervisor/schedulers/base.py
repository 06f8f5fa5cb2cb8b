"""The scheduler interface, registry and shared machinery.

vScale's generality claim (paper §6, the KVM port) is that the guest-side
scaling policy ``n_i = ceil(s_ext/t)`` holds regardless of which host
scheduler multiplexes vCPUs onto pCPUs.  To make that claim *testable*,
every pool scheduler lives behind the :class:`Scheduler` interface defined
here and is selected by name through a registry:

* :mod:`repro.hypervisor.schedulers.credit`   — Xen 4.x csched (the paper's
  substrate; the reference implementation every golden is pinned to);
* :mod:`repro.hypervisor.schedulers.credit2`  — Credit2-style: per-pCPU
  runqueues ordered by credit, weight-scaled burn, global credit reset;
* :mod:`repro.hypervisor.schedulers.cfs`      — CFS-style weight/vruntime
  scheduler with per-pCPU queues and idle stealing;
* :mod:`repro.hypervisor.schedulers.vrt`      — a virtual-runtime
  scheduler over one pool-wide queue (BVT/Credit2-class);
* :mod:`repro.hypervisor.schedulers.rr`       — a plain round-robin
  baseline (no weights), the control group of the generality grid.

Every zoo member but ``credit`` is a :class:`QueueScheduler`: the vCPU
state machine the freeze protocol depends on (wake, block, freeze,
unfreeze, yield, tickle, dispatch, tick) is written once, here, and a
zoo member supplies only its policy hooks on one of two queue layouts,
:class:`PerPcpuQueueScheduler` (``credit2``, ``cfs``) or
:class:`PoolQueueScheduler` (``vrt``, ``rr``).  ``credit`` keeps its own
inlined paths: it is the scheduler every benchmark measures.

Selection order: an explicit name (``HostConfig(scheduler="cfs")`` or the
runner's ``--scheduler`` flag) always wins; when no name is given, the
``REPRO_SCHEDULER`` environment variable applies; otherwise the default is
``credit``.  Leaving both unset is guaranteed bit-for-bit identical to the
pre-registry behavior — the golden suite enforces this.

The interface is the exact surface :class:`repro.hypervisor.machine.Machine`
already used: wake/block/unfreeze/yield entry points (a freeze completes
in ``vcpu_block``, when the freeze-pending vCPU idles), the per-pCPU
``schedule`` election, the reconfiguration-IPI ``tickle_vcpu`` expedite,
and ``runnable_backlog`` introspection.  **Fault sites and the vScale
extension must only go through this surface** (never through
scheduler-private fields such as ``credits``), so fault experiments and
Algorithm 1 run unchanged under any registered scheduler.

Capability flags (``weight_proportional``, ``supports_caps``,
``uses_credit_accounting``) let the shared conformance suite and the
sanitizer skip or re-derive per-scheduler invariants instead of assuming
the credit scheduler's accounting model.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, ClassVar, Iterator

from repro.hypervisor.domain import VCPU, VCPUState

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.hypervisor.machine import Machine, PCPU


class Scheduler:
    """Abstract pool-wide scheduler.

    Subclasses implement the entry points the machine funnels every
    scheduling-relevant event through.  The contract, shared by all
    implementations:

    * ``vcpu_wake``      — BLOCKED -> RUNNABLE (+ placement/preemption);
    * ``vcpu_block``     — the guest idles the vCPU; a freeze-pending vCPU
      completes its freeze here (Algorithm 2's target-side last step);
    * ``vcpu_unfreeze``  — FROZEN -> BLOCKED (wake-able again);
    * ``vcpu_yield``     — voluntary give-up (pv-spinlock path);
    * ``tickle_vcpu``    — expedite a vCPU with a pending reconfiguration
      IPI (paper §4.2);
    * ``schedule(pcpu)`` — (re)elect the vCPU to run on one pCPU, invoked
      through the machine's deferred-reschedule mechanism;
    * ``runnable_backlog`` — queued-but-waiting vCPU count for the pool.
    """

    #: Registry key.  Subclasses must set a unique, non-empty name.
    name: ClassVar[str] = ""
    #: CPU time converges to weight proportions (conformance property).
    weight_proportional: ClassVar[bool] = True
    #: ``Domain.cap`` hard caps are enforced by this scheduler.
    supports_caps: ClassVar[bool] = False
    #: Uses the per-vCPU ``credits`` balance; arms the sanitizer's
    #: credit-conservation checkers.
    uses_credit_accounting: ClassVar[bool] = False

    def __init__(self, machine: "Machine"):
        self.machine = machine
        self.config = machine.config
        self.sim = machine.sim

    # ------------------------------------------------------------------
    # Required surface
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Arm periodic machinery (ticks).  Called once by the machine."""
        raise NotImplementedError

    def vcpu_wake(self, vcpu: VCPU) -> None:
        raise NotImplementedError

    def vcpu_block(self, vcpu: VCPU) -> None:
        raise NotImplementedError

    def vcpu_unfreeze(self, vcpu: VCPU) -> None:
        raise NotImplementedError

    def vcpu_yield(self, vcpu: VCPU) -> None:
        raise NotImplementedError

    def tickle_vcpu(self, vcpu: VCPU) -> None:
        raise NotImplementedError

    def schedule(self, pcpu: "PCPU") -> None:
        raise NotImplementedError

    def runnable_backlog(self) -> int:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Introspection for the sanitizer and tests
    # ------------------------------------------------------------------
    def runqueues_view(self) -> Iterator[tuple[str, list[VCPU]]]:
        """``(label, queue)`` pairs covering every queued runnable vCPU.

        The sanitizer's runqueue-exclusivity checker walks this view, so
        it works for per-pCPU and global-queue schedulers alike.
        """
        raise NotImplementedError

    def state_dict(self) -> dict:
        """JSON-able view of the scheduler's dispatch state.

        Part of the machine-state observer (:mod:`repro.recovery.state`):
        two scheduler instances with equal state dicts will make
        identical future dispatch decisions.  The shared part covers the runqueues (as
        ordered vCPU names) and the backlog; policy-private state —
        vruntimes, credit epochs, parked domains — comes from
        :meth:`_state_extra`, which every zoo scheduler overrides.
        """
        return {
            "name": self.name,
            "runqueues": {
                label: [f"{v.domain.name}/{v.index}" for v in queue]
                for label, queue in self.runqueues_view()
            },
            "backlog": self.runnable_backlog(),
            "extra": self._state_extra(),
        }

    def _state_extra(self) -> dict:
        """Policy-private state folded into :meth:`state_dict`."""
        return {}

    # ------------------------------------------------------------------
    # Shared accounting helper
    # ------------------------------------------------------------------
    def charge_domain(self, vcpu: VCPU, elapsed: int) -> None:
        """Fold one finished running interval into the domain accounting
        the vScale extension samples (:class:`VScaleExtension`).

        Every implementation must route consumption through here: it is
        the single point where the no-frozen-burn invariant is checked,
        for any scheduler.
        """
        sanitizer = self.machine.sanitizer
        if sanitizer is not None:
            sanitizer.check_burn(vcpu, elapsed)
        domain = vcpu.domain
        domain.window_consumed_ns += elapsed
        domain.total_consumed_ns += elapsed

    def accounting_batch(
        self,
        vcpus: list[VCPU],
        delta: float,
        lo: float,
        hi: float,
        shift: float = 0,
    ) -> None:
        """Apply one accounting epoch's clipped balance update in place.

        Sets every vCPU's balance to
        ``shift + min(hi, max(lo, credits + delta))`` — the shape shared by
        csched's per-period credit distribution (clamp to ±acct, no shift)
        and Credit2's global reset (clamp the carry-over, shift by the new
        allotment).  A clamped balance is the bound *object*, so an int
        bound stays an int: the machine-state observer serializes ``300`` and
        ``300.0`` differently.  A zero shift is skipped rather than added,
        because ``0 + -0.0`` is ``0.0``.  Policies whose epoch update is
        not uniform across a batch (e.g. per-vCPU deltas that depend on
        runtime history) keep their own loops.
        """
        if shift:
            for vcpu in vcpus:
                vcpu.credits = shift + min(hi, max(lo, vcpu.credits + delta))
        else:
            for vcpu in vcpus:
                vcpu.credits = min(hi, max(lo, vcpu.credits + delta))


class QueueScheduler(Scheduler):
    """Template for queue-based schedulers (everything but csched).

    Implements the full state machine — wake, block (which completes a
    pending freeze), unfreeze, yield, tickle, running-interval
    bookkeeping, the periodic tick with idle rescue — against five
    primitive hooks subclasses provide:

    * ``_enqueue(vcpu)``          — admit a runnable vCPU to its queue;
    * ``_dequeue(vcpu)``          — remove it from whichever queue holds it;
    * ``_pick(pcpu)``             — elect (without removing) the next vCPU
      for ``pcpu``, or None;
    * ``_on_wake(vcpu)``          — per-policy wake bookkeeping (vruntime
      floor, credit boost, nothing);
    * ``_charge(vcpu, elapsed)``  — per-policy accounting for a finished
      running interval (must call :meth:`charge_domain`).

    The two queue layouts below supply ``_enqueue`` and ``_dequeue``.
    Optional hooks: ``_slice_ns(pcpu, vcpu)`` (quantum, defaults to the
    host timeslice), ``_on_frozen(vcpu)`` (surrender policy state),
    ``_on_yield(vcpu)`` (yield penalty), ``_on_tickle(vcpu)`` (expedite a
    reconfiguration IPI; defaults to ``_on_wake``), ``_wake_preempt(vcpu)``
    (placement/preemption after enqueue; the default kicks the first idle
    pCPU) and ``_tick_policy()`` (periodic preemption or credit work).
    """

    def __init__(self, machine: "Machine"):
        super().__init__(machine)
        self._tick_armed = False

    # -- primitive hooks -------------------------------------------------
    def _enqueue(self, vcpu: VCPU) -> None:
        raise NotImplementedError

    def _dequeue(self, vcpu: VCPU) -> None:
        raise NotImplementedError

    def _pick(self, pcpu: "PCPU") -> VCPU | None:
        raise NotImplementedError

    def _on_wake(self, vcpu: VCPU) -> None:
        """Per-policy bookkeeping before a woken vCPU is enqueued."""

    def _charge(self, vcpu: VCPU, elapsed: int) -> None:
        raise NotImplementedError

    def _slice_ns(self, pcpu: "PCPU", vcpu: VCPU) -> int:
        return self.config.timeslice_ns

    def _on_frozen(self, vcpu: VCPU) -> None:
        """Surrender per-policy state when a vCPU freezes."""

    def _on_yield(self, vcpu: VCPU) -> None:
        """Per-policy bookkeeping before a yielding vCPU is requeued."""

    def _wake_preempt(self, vcpu: VCPU) -> None:
        """Trigger dispatch after a wake: kick the first idle pCPU."""
        for pcpu in self.machine.pool:
            if pcpu.current is None:
                self.machine.request_reschedule(pcpu)
                return

    # -- lifecycle -------------------------------------------------------
    def start(self) -> None:
        self.sim.schedule(self.config.tick_ns, self._tick)

    # -- entry points ----------------------------------------------------
    def vcpu_wake(self, vcpu: VCPU) -> None:
        if vcpu.state is not VCPUState.BLOCKED:
            return
        vcpu.set_state(VCPUState.RUNNABLE, self.sim.now)
        self._on_wake(vcpu)
        self._admit(vcpu)
        self._wake_preempt(vcpu)

    def _admit(self, vcpu: VCPU) -> None:
        sanitizer = self.machine.sanitizer
        if sanitizer is not None:
            sanitizer.check_enqueue(vcpu)
        self._enqueue(vcpu)

    def vcpu_block(self, vcpu: VCPU) -> None:
        now = self.sim.now
        target = VCPUState.BLOCKED
        if vcpu.freeze_pending:
            target = VCPUState.FROZEN
            vcpu.freeze_pending = False
        if vcpu.state is VCPUState.RUNNING:
            pcpu = vcpu.pcpu
            self._stop_running(vcpu)
            vcpu.set_state(target, now)
            self.machine.request_reschedule(pcpu)
        elif vcpu.state is VCPUState.RUNNABLE:
            self._dequeue(vcpu)
            vcpu.set_state(target, now)
        elif vcpu.state is VCPUState.BLOCKED and target is VCPUState.FROZEN:
            vcpu.set_state(target, now)
        else:
            return
        if target is VCPUState.FROZEN:
            self._on_frozen(vcpu)

    def vcpu_unfreeze(self, vcpu: VCPU) -> None:
        vcpu.freeze_pending = False
        if vcpu.state is not VCPUState.FROZEN:
            return
        vcpu.set_state(VCPUState.BLOCKED, self.sim.now)

    def vcpu_yield(self, vcpu: VCPU) -> None:
        if vcpu.state is not VCPUState.RUNNING:
            return
        pcpu = vcpu.pcpu
        self._stop_running(vcpu)
        vcpu.set_state(VCPUState.RUNNABLE, self.sim.now)
        self._on_yield(vcpu)
        self._admit(vcpu)
        self.machine.request_reschedule(pcpu)

    def tickle_vcpu(self, vcpu: VCPU) -> None:
        if vcpu.state is not VCPUState.RUNNABLE:
            return
        self._dequeue(vcpu)
        self._on_tickle(vcpu)
        self._admit(vcpu)
        self._wake_preempt(vcpu)

    def _on_tickle(self, vcpu: VCPU) -> None:
        """Expedite bookkeeping for a reconfiguration-IPI tickle."""
        self._on_wake(vcpu)

    # -- dispatch --------------------------------------------------------
    def schedule(self, pcpu: "PCPU") -> None:
        now = self.sim.now
        current = pcpu.current
        if current is not None:
            self._stop_running(current)
            current.set_state(VCPUState.RUNNABLE, now)
            self._admit(current)
        candidate = self._pick(pcpu)
        if candidate is None:
            pcpu.set_idle(now)
            return
        self._dequeue(candidate)
        self._start_running(pcpu, candidate)

    # -- running-interval bookkeeping ------------------------------------
    def _start_running(self, pcpu: "PCPU", vcpu: VCPU) -> None:
        now = self.sim.now
        vcpu.set_state(VCPUState.RUNNING, now)
        vcpu.pcpu = pcpu
        vcpu.last_pcpu = pcpu
        vcpu.run_started_at = now
        pcpu.set_current(vcpu, now)
        pcpu.arm_slice(self._slice_ns(pcpu, vcpu))
        self.machine.vcpu_context_entered(vcpu)

    def _stop_running(self, vcpu: VCPU) -> None:
        now = self.sim.now
        pcpu = vcpu.pcpu
        assert pcpu is not None and vcpu.run_started_at is not None
        elapsed = now - vcpu.run_started_at
        self._charge(vcpu, elapsed)
        self.machine.vcpu_context_left(vcpu)
        pcpu.clear_current(now)
        vcpu.pcpu = None
        vcpu.run_started_at = None

    # -- tick: charge in-flight intervals, rescue idle pCPUs -------------
    def _tick(self) -> None:
        now = self.sim.now
        for pcpu in self.machine.pool:
            vcpu = pcpu.current
            if vcpu is None or vcpu.run_started_at is None:
                continue
            elapsed = now - vcpu.run_started_at
            if elapsed > 0:
                self._charge(vcpu, elapsed)
                vcpu.run_started_at = now
        self._tick_policy()
        if self.runnable_backlog():
            for pcpu in self.machine.pool:
                if pcpu.current is None:
                    self.machine.request_reschedule(pcpu)
        sanitizer = self.machine.sanitizer
        if sanitizer is not None:
            sanitizer.check_runqueues(self)
            sanitizer.check_machine(self.machine.domains)
        self.sim.schedule(self.config.tick_ns, self._tick)

    def _tick_policy(self) -> None:
        """Per-policy periodic work (preempting laggards, credit reset)."""

    # -- weights ---------------------------------------------------------
    def _effective_weight(self, vcpu: VCPU) -> float:
        """Per-VM weight split across the domain's active vCPUs (the
        paper's weight model), or the raw domain weight without it."""
        domain = vcpu.domain
        if self.config.per_vm_weight:
            return domain.weight / max(1, len(domain.active_vcpus()))
        return float(domain.weight)


class PerPcpuQueueScheduler(QueueScheduler):
    """Queue layout with one runqueue per pCPU (``credit2``, ``cfs``).

    A vCPU queues on its home pCPU: the one it last ran or queued on, or
    else the shortest queue.  Whether a pCPU may take a peer queue's
    waiter is the subclass's ``_pick``.
    """

    def __init__(self, machine: "Machine"):
        super().__init__(machine)
        #: Per-pCPU queues of runnable vCPUs not on a pCPU.
        self.queues: dict["PCPU", list[VCPU]] = {pcpu: [] for pcpu in machine.pool}

    def _home(self, vcpu: VCPU) -> "PCPU":
        if vcpu.last_pcpu is not None:
            return vcpu.last_pcpu
        return min(self.machine.pool, key=lambda p: (len(self.queues[p]), p.index))

    def _enqueue(self, vcpu: VCPU) -> None:
        home = self._home(vcpu)
        self.queues[home].append(vcpu)
        vcpu.last_pcpu = home

    def _dequeue(self, vcpu: VCPU) -> None:
        home = vcpu.last_pcpu
        if home is not None and vcpu in self.queues[home]:
            self.queues[home].remove(vcpu)
            return
        for queue in self.queues.values():
            if vcpu in queue:
                queue.remove(vcpu)
                return

    def runnable_backlog(self) -> int:
        return sum(len(q) for q in self.queues.values())

    def runqueues_view(self) -> Iterator[tuple[str, list[VCPU]]]:
        for pcpu, queue in self.queues.items():
            yield pcpu.name, queue


class PoolQueueScheduler(QueueScheduler):
    """Queue layout with one pool-wide list (``vrt``, ``rr``).

    Runnable vCPUs queue in arrival order; ``_pick`` decides which of
    them any pCPU runs next.
    """

    def __init__(self, machine: "Machine"):
        super().__init__(machine)
        #: Runnable vCPUs not on a pCPU, in arrival order.
        self.queue: list[VCPU] = []

    def _enqueue(self, vcpu: VCPU) -> None:
        self.queue.append(vcpu)

    def _dequeue(self, vcpu: VCPU) -> None:
        if vcpu in self.queue:
            self.queue.remove(vcpu)

    def runnable_backlog(self) -> int:
        return len(self.queue)

    def runqueues_view(self) -> Iterator[tuple[str, list[VCPU]]]:
        yield "pool", self.queue


def vruntime_map(vruntime: dict[VCPU, float]) -> dict[str, float]:
    """A per-vCPU vruntime table keyed ``domain/index``, in name order:
    the part of ``_state_extra`` the vruntime schedulers share."""
    return {
        f"{v.domain.name}/{v.index}": vrt
        for v, vrt in sorted(vruntime.items(), key=lambda item: (item[0].domain.name, item[0].index))
    }


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
#: Environment variable consulted when no scheduler name is given.
ENV_VAR = "REPRO_SCHEDULER"
#: The paper's substrate; all pre-registry goldens are pinned to it.
DEFAULT_SCHEDULER = "credit"

_REGISTRY: dict[str, type[Scheduler]] = {}


def register(cls: type[Scheduler]) -> type[Scheduler]:
    """Class decorator adding a scheduler to the registry by its name."""
    if not cls.name:
        raise ValueError(f"{cls.__name__} must set a non-empty name")
    existing = _REGISTRY.get(cls.name)
    if existing is not None and existing is not cls:
        raise ValueError(
            f"scheduler name {cls.name!r} already registered by {existing.__name__}"
        )
    _REGISTRY[cls.name] = cls
    return cls


def available() -> tuple[str, ...]:
    """Registered scheduler names, sorted for deterministic iteration."""
    return tuple(sorted(_REGISTRY))


def get(name: str) -> type[Scheduler]:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown scheduler {name!r} (available: {', '.join(available())})"
        ) from None


def resolve_name(name: str | None = None) -> str:
    """Resolve an optional scheduler name to a registered one.

    Explicit name > ``REPRO_SCHEDULER`` > ``credit``.  Raises ``ValueError``
    for names (explicit or from the environment) not in the registry.
    """
    if name is None:
        name = os.environ.get(ENV_VAR) or DEFAULT_SCHEDULER
    get(name)
    return name


def create(name: str | None, machine: "Machine") -> Scheduler:
    """Instantiate the scheduler selected by ``name`` (or env/default)."""
    return get(resolve_name(name))(machine)

