"""Outside-in per-layer spans for the traced benchmark run.

Spans are recorded from benchmark code only, by wrapping the simulator's
public surface while a traced cell runs:

* callback spans: ``Simulator.schedule``/``schedule_at`` hand the engine a
  dispatcher in place of each callback, so every fired event becomes a
  span of the layer that owns the callback's ``__module__``;
* entry-point spans: the methods in :data:`ENTRY_POINTS` (and the
  scheduler methods in :data:`SCHEDULER_METHODS`, on every registered
  scheduler class) are replaced by timing wrappers;
* ``Simulator.run`` is a ``sim`` span, and the cell call itself is the
  root span, of layer ``experiments``.

Spans nest through one stack.  A span's self time is its duration minus
the durations of its direct children, so the self times of one cell add
up exactly to its root span.  Everything is aggregated in memory; the raw
spans of a cell are kept only when asked for (``raw_limit``), for the
Chrome trace-event file.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager

LAYERS = ("sim", "hypervisor", "schedulers", "guest", "core", "workloads", "metrics", "experiments")
#: Layers whose fired events are reported as ``<layer>.events``.
EVENT_LAYERS = ("hypervisor", "schedulers", "guest", "core", "workloads")

ENTRY_POINTS = (
    ("repro.hypervisor.machine", "Machine", ("hyp_send_ipi", "post_irq", "hyp_read_extendability")),
    ("repro.guest.kernel", "GuestKernel", ("deliver_irq", "wake_thread", "idle_balance")),
    ("repro.core.extendability", "VScaleExtension", ("recompute",)),
    ("repro.core.channel", "VScaleChannel", ("read_info",)),
    ("repro.core.balancer", "VScaleBalancer", ("freeze", "unfreeze")),
)
SCHEDULER_METHODS = ("schedule", "vcpu_wake", "vcpu_block", "accounting_batch")


def layer_of(module: str) -> str:
    """The layer a module belongs to.

    Code outside the simulator's layers (fault injection, tracing, ...)
    is charged to ``experiments``, the layer that installed it.
    """
    if module.startswith("repro.hypervisor.schedulers"):
        return "schedulers"
    parts = module.split(".")
    if len(parts) > 1 and parts[0] == "repro" and parts[1] in LAYERS:
        return parts[1]
    return "experiments"


class SpanTracer:
    """Per-span-name aggregates of one traced cell."""

    def __init__(self, raw_limit: int = 0):
        #: Per slot: name, layer, kind ("callback", "entry", "run", "root").
        self.names: list[str] = []
        self.layers: list[str] = []
        self.kinds: list[str] = []
        self.self_ns: list[int] = []
        self.count: list[int] = []
        self._slots: dict = {}
        self._stack: list[int] = [0]
        self.raw: list[tuple[int, int, int, int]] = []  # slot, start, duration, depth
        self.raw_limit = raw_limit
        self.scheduled = 0
        self.cancelled = 0
        self.queue_peak = 0
        self.batch_vcpus = 0
        self.reconfigs = 0
        self.total_ns = 0

    def slot(self, key, name: str, layer: str, kind: str) -> int:
        slot = self._slots.get(key)
        if slot is None:
            slot = self._slots[key] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
            self.kinds.append(kind)
            self.self_ns.append(0)
            self.count.append(0)
        return slot

    def _callback_slot(self, fn, key) -> int:
        module = getattr(fn, "__module__", None) or ""
        name = getattr(fn, "__qualname__", None) or type(fn).__name__
        return self.slot(key, name, layer_of(module), "callback")

    def span(self, slot: int, fn, *args, **kwargs):
        """Call ``fn`` as a span of ``slot``."""
        stack = self._stack
        stack.append(0)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = time.perf_counter_ns() - start
            self.self_ns[slot] += duration - stack.pop()
            stack[-1] += duration
            self.count[slot] += 1
            if len(self.raw) < self.raw_limit:
                self.raw.append((slot, start, duration, len(stack)))

    def root(self, fn, *args):
        """Run a whole cell as the root span; returns ``fn``'s result."""
        slot = self.slot("cell", "cell", "experiments", "root")
        self._stack = [0]
        try:
            return self.span(slot, fn, *args)
        finally:
            self.total_ns += self._stack[0]

    def dispatch(self, fn, *args) -> None:
        """Stands in for every scheduled callback while tracing."""
        key = getattr(fn, "__func__", None) or getattr(fn, "__code__", fn)
        slot = self._slots.get(key)
        if slot is None:
            slot = self._callback_slot(fn, key)
        self.span(slot, fn, *args)


def _entry_targets():
    """(class, method name) pairs wrapped as entry-point spans."""
    targets = []
    for module, cls_name, methods in ENTRY_POINTS:
        cls = getattr(importlib.import_module(module), cls_name)
        targets.extend((cls, m) for m in methods)
    from repro.hypervisor import schedulers

    seen = set()
    for name in schedulers.available():
        for method in SCHEDULER_METHODS:
            # Wrap the class that defines the method, once, so inherited
            # methods are not timed twice.
            owner = next(k for k in schedulers.get(name).__mro__ if method in k.__dict__)
            if (owner, method) not in seen:
                seen.add((owner, method))
                targets.append((owner, method))
    return targets


@contextmanager
def tracing(tracer: SpanTracer):
    """Install the span wrappers for the duration of the block."""
    from repro.sim.engine import Event, Simulator

    patches = []

    def patch(cls, name, value):
        patches.append((cls, name, cls.__dict__[name]))
        setattr(cls, name, value)

    dispatch = tracer.dispatch
    orig_schedule = Simulator.schedule
    orig_schedule_at = Simulator.schedule_at
    orig_run = Simulator.run
    orig_cancel = Event.cancel

    def note_scheduled(sim):
        tracer.scheduled += 1
        live = sim.pending_count()
        if live > tracer.queue_peak:
            tracer.queue_peak = live

    def schedule(self, delay, fn, *args):
        event = orig_schedule(self, delay, dispatch, fn, *args)
        note_scheduled(self)
        return event

    def schedule_at(self, time_ns, fn, *args):
        event = orig_schedule_at(self, time_ns, dispatch, fn, *args)
        note_scheduled(self)
        return event

    run_slot = tracer.slot("Simulator.run", "Simulator.run", "sim", "run")

    def run(self, until=None):
        tracer.span(run_slot, orig_run, self, until)

    cancel_slot = tracer.slot("Event.cancel", "Event.cancel", "sim", "entry")

    def cancel(self):
        if not self.cancelled:
            tracer.cancelled += 1
        tracer.span(cancel_slot, orig_cancel, self)

    try:
        patch(Simulator, "schedule", schedule)
        patch(Simulator, "schedule_at", schedule_at)
        patch(Simulator, "run", run)
        patch(Event, "cancel", cancel)
        for cls, name in _entry_targets():
            patch(cls, name, _entry_wrapper(tracer, cls, name, cls.__dict__[name]))
        yield tracer
    finally:
        for cls, name, original in reversed(patches):
            setattr(cls, name, original)


def _entry_wrapper(tracer: SpanTracer, cls, name: str, original):
    slot = tracer.slot((cls, name), f"{cls.__name__}.{name}", layer_of(cls.__module__), "entry")
    span = tracer.span

    if name == "accounting_batch":

        def wrapper(self, vcpus, *args, **kwargs):
            tracer.batch_vcpus += len(vcpus)
            return span(slot, original, self, vcpus, *args, **kwargs)

    elif name in ("freeze", "unfreeze"):

        def wrapper(*args, **kwargs):
            report = span(slot, original, *args, **kwargs)
            tracer.reconfigs += 1  # reached only when the operation succeeded
            return report

    else:

        def wrapper(*args, **kwargs):
            return span(slot, original, *args, **kwargs)

    return functools.wraps(original)(wrapper)


class LayerTotals:
    """Per-layer sums over the traced cells of one workload."""

    def __init__(self):
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self.events = dict.fromkeys(LAYERS, 0)
        self.callbacks: dict[str, int] = {}
        self.entries: dict[str, int] = {}
        self.counters = dict.fromkeys(
            ("scheduled", "cancelled", "batch_vcpus", "reconfigs"), 0
        )
        self.queue_peak = 0
        self.total_s = 0.0

    def add(self, tracer: SpanTracer, scale: float) -> None:
        """Fold in one cell; ``scale`` turns its host ns into normalized s."""
        for i, name in enumerate(tracer.names):
            layer = tracer.layers[i]
            self.self_s[layer] += tracer.self_ns[i] * scale
            self.calls[layer] += tracer.count[i]
            if tracer.kinds[i] == "callback":
                self.events[layer] += tracer.count[i]
                table = self.callbacks
            else:
                table = self.entries
            table[name] = table.get(name, 0) + tracer.count[i]
        for key in self.counters:
            self.counters[key] += getattr(tracer, key)
        self.queue_peak = max(self.queue_peak, tracer.queue_peak)
        self.total_s += tracer.total_ns * scale

    def to_dict(self) -> dict:
        return dict(vars(self))

    @classmethod
    def from_dict(cls, data: dict) -> "LayerTotals":
        totals = cls()
        vars(totals).update(data)
        return totals


def layer_metrics(
    totals: LayerTotals,
    sim_s: float,
    untraced_s: float,
    traced_s: float,
    requests: int,
    drops: int,
) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, as ``name -> (value, unit)``.

    ``sim_s`` is the simulated time the traced cells cover; ``untraced_s``
    and ``traced_s`` their normalized host time without and with spans.
    """
    t = totals
    entries, callbacks, c = t.entries, t.callbacks, t.counters
    dispatched = sum(t.events.values())
    total_self = sum(t.self_s.values())

    def sched(method: str) -> int:
        return sum(n for name, n in entries.items() if name.endswith("." + method))

    metrics: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (t.self_s[layer], "s")
        metrics[f"{layer}.share"] = (t.self_s[layer] / total_self if total_self else 0.0, "ratio")
        metrics[f"{layer}.calls"] = (t.calls[layer], "count")
    for layer in EVENT_LAYERS:
        metrics[f"{layer}.events"] = (t.events[layer], "count")
    ticks = callbacks.get("GuestKernel._tick", 0)
    batches = sched("accounting_batch")
    metrics.update(
        {
            "sim.scheduled": (c["scheduled"], "count"),
            "sim.dispatched": (dispatched, "count"),
            "sim.cancelled": (c["cancelled"], "count"),
            "sim.cancel_ratio": (c["cancelled"] / c["scheduled"] if c["scheduled"] else 0.0, "ratio"),
            "sim.queue_peak": (t.queue_peak, "count"),
            "sim.ns_per_event": (untraced_s * 1e9 / dispatched if dispatched else 0.0, "ns"),
            "sim.events_per_sim_s": (dispatched / sim_s if sim_s else 0.0, "1/s"),
            "guest.tick_events": (ticks, "count"),
            "guest.ticks_per_sim_s": (ticks / sim_s if sim_s else 0.0, "1/s"),
            "guest.irq_delivered": (entries.get("GuestKernel.deliver_irq", 0), "count"),
            "guest.thread_wakes": (entries.get("GuestKernel.wake_thread", 0), "count"),
            "guest.idle_balance": (entries.get("GuestKernel.idle_balance", 0), "count"),
            "hypervisor.ipis": (entries.get("Machine.hyp_send_ipi", 0), "count"),
            "hypervisor.irqs_posted": (entries.get("Machine.post_irq", 0), "count"),
            "hypervisor.ext_reads": (entries.get("Machine.hyp_read_extendability", 0), "count"),
            "schedulers.schedule": (sched("schedule"), "count"),
            "schedulers.wake": (sched("vcpu_wake"), "count"),
            "schedulers.block": (sched("vcpu_block"), "count"),
            "schedulers.acct_batches": (batches, "count"),
            "schedulers.acct_batch_mean": (c["batch_vcpus"] / batches if batches else 0.0, "count"),
            "core.recomputes": (entries.get("VScaleExtension.recompute", 0), "count"),
            "core.channel_reads": (entries.get("VScaleChannel.read_info", 0), "count"),
            "core.freezes": (entries.get("VScaleBalancer.freeze", 0), "count"),
            "core.unfreezes": (entries.get("VScaleBalancer.unfreeze", 0), "count"),
            "core.reconfigs": (c["reconfigs"], "count"),
            "workloads.requests": (requests, "count"),
            "workloads.drop_ratio": (drops / requests if requests else 0.0, "ratio"),
            "trace_overhead": (traced_s / untraced_s if untraced_s else 0.0, "ratio"),
        }
    )
    return metrics


def chrome_trace(tracer: SpanTracer, cell_id: str) -> dict:
    """A traced cell's raw spans in Chrome trace-event format."""
    origin = min((start for _, start, _, _ in tracer.raw), default=0)
    events = [
        {
            "name": tracer.names[slot],
            "cat": tracer.layers[slot],
            "ph": "X",
            "ts": (start - origin) / 1000,
            "dur": duration / 1000,
            "pid": 0,
            "tid": 0,
            "args": {"cell": cell_id, "depth": depth},
        }
        for slot, start, duration, depth in tracer.raw
    ]
    return {
        "traceEvents": events,
        "displayTimeUnit": "ns",
        "otherData": {"cell": cell_id, "spans": sum(tracer.count), "kept": len(events)},
    }
