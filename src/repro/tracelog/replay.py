"""Replay verification: prove a trace reproduces from its own metadata.

A trace captured through :func:`capture_run` embeds a ``run`` entry in
its header — the dotted reference of the cell function plus its JSON
kwargs.  :func:`replay_run` imports that function and re-executes it
under a fresh capture; :func:`replay_verify` then compares the two event
sequences.  Because the whole stack is deterministic, the replay must be
*identical* — the comparison is a sha256 fingerprint over the canonical
rendering of every event, and any mismatch produces a structured
:class:`DivergenceReport` with the first diverging record and the trace
tail leading up to it (the same shape as the sanitizer's
``InvariantViolation`` tails, so the two read alike in CI logs).
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import tempfile
from dataclasses import dataclass, field

from repro.sim.trace import TraceRecord
from repro.tracelog import codec
from repro.tracelog.capture import capture_to

#: Records shown before the divergence point in a report.
TAIL = 10


def _canonical_line(record: TraceRecord) -> str:
    details = json.dumps(record.details, sort_keys=True, default=str)
    return (
        f"{record.time_ns}\x1f{record.category}\x1f{record.event}"
        f"\x1f{record.subject}\x1f{details}\n"
    )


def fingerprint_records(records: list[TraceRecord]) -> str:
    """SHA-256 over the canonical rendering of an event sequence.

    Metadata is deliberately excluded: two captures of the same run
    through different paths (env vs. executor) must fingerprint alike.
    """
    digest = hashlib.sha256()
    for record in records:
        digest.update(_canonical_line(record).encode("utf-8"))
    return digest.hexdigest()


def trace_fingerprint(path: str) -> str:
    _, records = codec.load(path)
    return fingerprint_records(records)


@dataclass
class DivergenceReport:
    """Structured outcome of comparing two event sequences."""

    match: bool
    fingerprint_a: str
    fingerprint_b: str
    count_a: int
    count_b: int
    first_divergence: int | None = None
    expected: TraceRecord | None = None
    actual: TraceRecord | None = None
    tail_a: list[TraceRecord] = field(default_factory=list)
    tail_b: list[TraceRecord] = field(default_factory=list)

    def render(self) -> str:
        if self.match:
            return (
                f"traces match: {self.count_a} events, "
                f"fingerprint {self.fingerprint_a[:16]}"
            )
        lines = [
            "trace divergence detected:",
            f"  fingerprint A: {self.fingerprint_a}",
            f"  fingerprint B: {self.fingerprint_b}",
            f"  events: A={self.count_a} B={self.count_b}",
        ]
        if self.first_divergence is not None:
            lines.append(f"  first divergence at event #{self.first_divergence}:")
            lines.append(f"    expected: {self.expected}")
            lines.append(f"    actual:   {self.actual}")
        if self.tail_a:
            lines.append(f"  last {len(self.tail_a)} events before divergence (A):")
            lines.extend(f"    {record}" for record in self.tail_a)
        if self.tail_b and self.tail_b != self.tail_a:
            lines.append(f"  last {len(self.tail_b)} events before divergence (B):")
            lines.extend(f"    {record}" for record in self.tail_b)
        return "\n".join(lines)


def compare_records(
    a: list[TraceRecord], b: list[TraceRecord]
) -> DivergenceReport:
    fp_a = fingerprint_records(a)
    fp_b = fingerprint_records(b)
    if fp_a == fp_b:
        return DivergenceReport(True, fp_a, fp_b, len(a), len(b))
    index = None
    for i, (ra, rb) in enumerate(zip(a, b)):
        if _canonical_line(ra) != _canonical_line(rb):
            index = i
            break
    if index is None:
        # One sequence is a strict prefix of the other.
        index = min(len(a), len(b))
    return DivergenceReport(
        False,
        fp_a,
        fp_b,
        len(a),
        len(b),
        first_divergence=index,
        expected=a[index] if index < len(a) else None,
        actual=b[index] if index < len(b) else None,
        tail_a=a[max(0, index - TAIL):index],
        tail_b=b[max(0, index - TAIL):index],
    )


def compare_traces(path_a: str, path_b: str) -> DivergenceReport:
    _, records_a = codec.load(path_a)
    _, records_b = codec.load(path_b)
    return compare_records(records_a, records_b)


# ----------------------------------------------------------------------
# Run capture / replay
# ----------------------------------------------------------------------
def _fn_ref(fn) -> str:
    return f"{fn.__module__}:{fn.__qualname__}"


def _resolve(ref: str):
    module_name, _, qualname = ref.partition(":")
    if not module_name or not qualname or "." in qualname:
        raise ValueError(f"unsupported function reference: {ref!r}")
    module = importlib.import_module(module_name)
    return getattr(module, qualname)


def capture_run(fn, kwargs: dict, path: str, categories=None):
    """Run ``fn(**kwargs)`` with tracing to ``path``; embed replay meta.

    ``fn`` must be a module-level function and ``kwargs`` JSON-able —
    the constraint that makes the trace self-describing for replay.
    """
    meta = {
        "source": "capture_run",
        "run": {"fn": _fn_ref(fn), "kwargs": kwargs},
    }
    with capture_to(path, meta=meta, categories=categories):
        return fn(**kwargs)


def replay_run(path: str, out_path: str | None = None) -> str:
    """Re-execute the run described in a trace's metadata.

    Returns the path of the freshly captured trace (a temp file unless
    ``out_path`` is given).  Raises ``ValueError`` when the trace has no
    embedded run reference (e.g. env captures of arbitrary scripts).
    """
    meta, _ = codec.load(path)
    run = meta.get("run")
    if not run or "fn" not in run:
        raise ValueError(
            f"trace {path} has no embedded run metadata; "
            "only traces written by capture_run can be replayed"
        )
    fn = _resolve(run["fn"])
    kwargs = run.get("kwargs", {})
    if out_path is None:
        fd, out_path = tempfile.mkstemp(suffix=".rtl", prefix="replay-")
        os.close(fd)
    categories = meta.get("categories")
    capture_run(fn, kwargs, out_path, categories=categories)
    return out_path


def replay_verify(path: str, keep_replay: bool = False) -> DivergenceReport:
    """Replay a trace and compare event sequences.  The core CI check."""
    replayed = replay_run(path)
    try:
        return compare_traces(path, replayed)
    finally:
        if not keep_replay:
            try:
                os.unlink(replayed)
            except OSError:
                pass
