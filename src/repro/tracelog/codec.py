"""The ``repro.tracelog`` binary trace format.

A trace file is a compact, append-only stream of typed records::

    magic     b"RTLG" + one version byte
    header    varint length + canonical JSON metadata (sorted keys)
    records   a sequence of tagged records:
                0x01 STR    varint id, varint byte-length, UTF-8 bytes
                0x02 EVENT  varint zigzag time-delta (vs previous event),
                            varint category-id, varint event-id,
                            varint subject-id, varint detail count,
                            then per detail: varint key-id, tagged value
                0x03 END    varint total event count (truncation guard)

Every string (category, event name, subject, detail key, string value)
is *interned*: its bytes appear once, in a STR record emitted right
before first use, and every later reference is a small varint id.
Timestamps are zigzag varint deltas against the previous event's
timestamp — simulation time is (weakly) monotonic, so deltas are tiny.

Detail values are tagged:

====  =======================================================
tag   payload
====  =======================================================
0     zigzag varint integer
1     IEEE-754 float, 8 bytes big-endian
2     varint string id
3     boolean True (no payload)
4     boolean False (no payload)
5     None (no payload)
6     varint string id of a canonical-JSON fallback encoding
====  =======================================================

The encoding is a pure function of the record sequence: encoding the
same events always yields the same bytes, which is what makes "same
seed => byte-identical trace file" testable.  Nothing in this module
reads the wall clock or draws randomness.
"""

from __future__ import annotations

import json
import struct
from typing import BinaryIO, Iterator

from repro.sim.trace import TraceRecord

MAGIC = b"RTLG"
VERSION = 1

_REC_STR = 0x01
_REC_EVENT = 0x02
_REC_END = 0x03

_TAG_INT = 0
_TAG_FLOAT = 1
_TAG_STR = 2
_TAG_TRUE = 3
_TAG_FALSE = 4
_TAG_NONE = 5
_TAG_JSON = 6

#: Writer buffer flush threshold (bytes).
_FLUSH_BYTES = 1 << 16

#: Records queued before a batch encode.  Encoding per event from cold
#: simulator code pays heavy cache penalties; draining a large batch in
#: one tight loop runs at microbenchmark speed.  The on-disk trace lags
#: live execution by at most this many events (close() drains the rest).
_BATCH_RECORDS = 4096


class TraceFormatError(RuntimeError):
    """Raised for malformed, truncated, or wrong-version trace files."""


# ----------------------------------------------------------------------
# Primitive encoders
# ----------------------------------------------------------------------
def write_varint(buf: bytearray, value: int) -> None:
    """Append an unsigned LEB128 varint."""
    if value < 0:
        raise ValueError("varint values must be non-negative")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            buf.append(byte | 0x80)
        else:
            buf.append(byte)
            return


def unzigzag(value: int) -> int:
    return (value >> 1) ^ -(value & 1)


class TraceWriter:
    """Streams :class:`~repro.sim.trace.TraceRecord`s to a binary file.

    A :class:`~repro.sim.trace.Tracer` feeds it through
    :meth:`stream_into`; :meth:`write` queues one record directly.
    Writes are buffered and flushed in ``_FLUSH_BYTES`` chunks so the
    per-event overhead stays bounded; :meth:`close` appends the END
    record and is idempotent.
    """

    def __init__(self, path: str, meta: dict | None = None):
        self.path = str(path)
        self.meta = dict(meta or {})
        self._fh: BinaryIO | None = open(self.path, "wb")
        self._buf = bytearray(MAGIC)
        self._buf.append(VERSION)
        header = json.dumps(self.meta, sort_keys=True).encode("utf-8")
        write_varint(self._buf, len(header))
        self._buf += header
        self._strings: dict[str, int] = {}
        #: Encoded-body memo: most traces repeat a small set of payloads
        #: (a vCPU has four states, a pCPU set is small), so the encoded
        #: EVENT body (everything after the time delta) is cached.  Keyed
        #: two-level — ``(category, event, subject)`` to a short list of
        #: ``(details, body)`` pairs — because building a hashable key
        #: from the details dict per event costs more than the lookup.
        self._memo: dict[tuple[str, str, str], list] = {}
        self._pending: list[TraceRecord] = []
        self._last_time = 0
        self.records_written = 0

    def stream_into(self, tracer) -> None:
        """Make ``tracer`` stream through this writer.

        The writer's pending batch is adopted as the tracer's record
        buffer, so ``Tracer.emit``'s ordinary append feeds the encoder
        directly — the cheapest capture wiring there is.  The trade-off:
        the tracer's in-memory buffer only holds the undrained tail
        (post-mortem consumers should read the trace file instead).
        """
        tracer.attach_stream(self._pending, self._drain, _BATCH_RECORDS)

    # -- interning -------------------------------------------------------
    def _intern(self, text: str) -> int:
        ident = self._strings.get(text)
        if ident is None:
            ident = self._strings[text] = len(self._strings)
            buf = self._buf
            buf.append(_REC_STR)
            write_varint(buf, ident)
            payload = text.encode("utf-8")
            write_varint(buf, len(payload))
            buf += payload
        return ident

    # -- record emission -------------------------------------------------
    def _encode_body(self, record: TraceRecord) -> bytes:
        # Encode everything after the time delta.  Interning and varint
        # encoding are inlined with single-byte fast paths (ids and
        # detail counts are almost always < 128).  STR records for any
        # new strings land in ``self._buf`` *before* the EVENT record
        # referencing them, hence the pre-pass over details.
        strings = self._strings
        intern = self._intern
        category_id = strings.get(record.category)
        if category_id is None:
            category_id = intern(record.category)
        event_id = strings.get(record.event)
        if event_id is None:
            event_id = intern(record.event)
        subject_id = strings.get(record.subject)
        if subject_id is None:
            subject_id = intern(record.subject)
        items = []
        for key, value in record.details.items():
            key_id = strings.get(key)
            if key_id is None:
                key_id = intern(key)
            if isinstance(value, str):
                value_id = strings.get(value)
                if value_id is None:
                    value_id = intern(value)
                items.append((key_id, _TAG_STR, value_id))
            elif value is None or isinstance(value, (int, float)):
                items.append((key_id, None, value))
            else:
                # JSON fallback — interned here, in the pre-pass, so the
                # STR record cannot land inside the EVENT record.
                payload = json.dumps(value, sort_keys=True, default=str)
                value_id = strings.get(payload)
                if value_id is None:
                    value_id = intern(payload)
                items.append((key_id, _TAG_JSON, value_id))

        body = bytearray()
        append = body.append
        for ident in (category_id, event_id, subject_id, len(items)):
            while ident > 0x7F:
                append((ident & 0x7F) | 0x80)
                ident >>= 7
            append(ident)
        for key_id, tag, value in items:
            while key_id > 0x7F:
                append((key_id & 0x7F) | 0x80)
                key_id >>= 7
            append(key_id)
            if tag is not None:  # _TAG_STR or _TAG_JSON: value is an id
                append(tag)
                while value > 0x7F:
                    append((value & 0x7F) | 0x80)
                    value >>= 7
                append(value)
            elif value is True:
                append(_TAG_TRUE)
            elif value is False:
                append(_TAG_FALSE)
            elif value is None:
                append(_TAG_NONE)
            elif isinstance(value, int):
                append(_TAG_INT)
                value = value << 1 if value >= 0 else ((-value) << 1) - 1
                while value > 0x7F:
                    append((value & 0x7F) | 0x80)
                    value >>= 7
                append(value)
            else:
                append(_TAG_FLOAT)
                body += struct.pack(">d", value)
        return bytes(body)

    def write(self, record: TraceRecord) -> None:
        """Queue one record; encoding happens in :meth:`_drain`'s tight
        loop once a batch accumulates (or on flush/close).  Per-event
        encoding from the middle of cold simulator code would pay heavy
        cache penalties; a drained batch runs at microbenchmark speed."""
        if self._fh is None:
            raise TraceFormatError(f"writer for {self.path} is closed")
        pending = self._pending
        pending.append(record)
        if len(pending) >= _BATCH_RECORDS:
            self._drain()

    def _drain(self) -> None:
        # Traces repeat a small set of payloads almost always, so the
        # encoded body is looked up in the memo first and only built
        # (with its STR records) on a miss.  A dict-equality probe alone
        # would conflate ``True == 1 == 1.0``, which encode differently,
        # so equal values must also be identical or of the same class.
        # Memo hits are safe to replay because the strings a cached body
        # references were interned — written to the stream — when that
        # body was first built.
        # A streaming tracer holds self._pending as its record buffer,
        # so the list is cleared in place rather than rebound.
        pending = self._pending
        if not pending:
            return
        memo = self._memo
        encode_body = self._encode_body
        buf = self._buf
        append = buf.append
        last_time = self._last_time
        for record in pending:
            details = record.details
            body = None
            entries = memo.get((record.category, record.event, record.subject))
            if entries is not None:
                for stored, cached in entries:
                    if stored == details:
                        for key, value in details.items():
                            sv = stored[key]
                            if (
                                sv is not value
                                and sv.__class__ is not value.__class__
                            ):
                                break
                        else:
                            body = cached
                            break
            if body is None:
                body = encode_body(record)
                # High-variance payloads (e.g. a per-event latency
                # integer) would churn the memo, so each slot caches a
                # few shapes and then gives up.
                if entries is None:
                    memo[(record.category, record.event, record.subject)] = [
                        (dict(details), body)
                    ]
                elif len(entries) < 8:
                    entries.append((dict(details), body))
            append(_REC_EVENT)
            time_ns = record.time_ns
            delta = time_ns - last_time
            last_time = time_ns
            value = delta << 1 if delta >= 0 else ((-delta) << 1) - 1
            while value > 0x7F:
                append((value & 0x7F) | 0x80)
                value >>= 7
            append(value)
            buf += body
        self._last_time = last_time
        self.records_written += len(pending)
        pending.clear()
        if len(buf) >= _FLUSH_BYTES:
            self._write_out()

    # -- lifecycle -------------------------------------------------------
    def _write_out(self) -> None:
        if self._fh is not None and self._buf:
            self._fh.write(self._buf)
            self._buf = bytearray()

    def flush(self) -> None:
        """Encode queued records and push everything to the OS file —
        after this, the trace so far is readable with ``strict=False``."""
        self._drain()
        self._write_out()
        if self._fh is not None:
            self._fh.flush()

    def close(self) -> None:
        if self._fh is None:
            return
        self._drain()
        self._buf.append(_REC_END)
        write_varint(self._buf, self.records_written)
        self._write_out()
        self._fh.close()
        self._fh = None

    @property
    def closed(self) -> bool:
        return self._fh is None


# ----------------------------------------------------------------------
# Decoding
# ----------------------------------------------------------------------
class _Cursor:
    __slots__ = ("data", "pos")

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def byte(self) -> int:
        try:
            value = self.data[self.pos]
        except IndexError:
            raise TraceFormatError(
                f"truncated trace at offset {self.pos}"
            ) from None
        self.pos += 1
        return value

    def take(self, count: int) -> bytes:
        end = self.pos + count
        if end > len(self.data):
            raise TraceFormatError(f"truncated trace at offset {self.pos}")
        chunk = self.data[self.pos:end]
        self.pos = end
        return chunk

    def varint(self) -> int:
        shift = 0
        value = 0
        while True:
            byte = self.byte()
            value |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return value
            shift += 7
            if shift > 70:
                raise TraceFormatError(
                    f"varint overflow at offset {self.pos}"
                )

    @property
    def exhausted(self) -> bool:
        return self.pos >= len(self.data)


def read_header(data: bytes) -> tuple[dict, _Cursor]:
    """Validate magic/version and return (metadata, record cursor)."""
    if data[: len(MAGIC)] != MAGIC:
        raise TraceFormatError("not a repro.tracelog file (bad magic)")
    cursor = _Cursor(data)
    cursor.pos = len(MAGIC)
    version = cursor.byte()
    if version != VERSION:
        raise TraceFormatError(
            f"unsupported trace format version {version} (expected {VERSION})"
        )
    length = cursor.varint()
    try:
        meta = json.loads(cursor.take(length).decode("utf-8"))
    except ValueError as exc:
        raise TraceFormatError(f"corrupt trace metadata: {exc}") from None
    if not isinstance(meta, dict):
        raise TraceFormatError("trace metadata must be a JSON object")
    return meta, cursor


def iter_records(cursor: _Cursor, strict: bool = True) -> Iterator[TraceRecord]:
    """Decode EVENT records from a cursor positioned after the header.

    ``strict=True`` (the default) raises :class:`TraceFormatError` when
    the END record is missing or its count disagrees — both signs of a
    truncated or corrupted file.
    ``strict=False`` (the post-mortem ``dump`` path) yields whatever
    prefix decodes cleanly from a crashed run's partial trace.
    """
    strings: dict[int, str] = {}
    last_time = 0
    count = 0

    def lookup(ident: int) -> str:
        try:
            return strings[ident]
        except KeyError:
            raise TraceFormatError(
                f"reference to undefined string id {ident}"
            ) from None

    while True:
        if cursor.exhausted:
            if strict:
                raise TraceFormatError(
                    "truncated trace: end marker missing"
                )
            return
        try:
            kind = cursor.byte()
            if kind == _REC_STR:
                ident = cursor.varint()
                length = cursor.varint()
                strings[ident] = cursor.take(length).decode("utf-8")
                continue
            if kind == _REC_END:
                declared = cursor.varint()
                if declared != count:
                    raise TraceFormatError(
                        f"corrupt trace: end marker declares {declared} "
                        f"events, decoded {count}"
                    )
                return
            if kind != _REC_EVENT:
                raise TraceFormatError(
                    f"unknown record kind 0x{kind:02x} at offset {cursor.pos - 1}"
                )
            last_time += unzigzag(cursor.varint())
            category = lookup(cursor.varint())
            event = lookup(cursor.varint())
            subject = lookup(cursor.varint())
            details: dict = {}
            for _ in range(cursor.varint()):
                key = lookup(cursor.varint())
                tag = cursor.byte()
                if tag == _TAG_INT:
                    details[key] = unzigzag(cursor.varint())
                elif tag == _TAG_FLOAT:
                    details[key] = struct.unpack(">d", cursor.take(8))[0]
                elif tag == _TAG_STR:
                    details[key] = lookup(cursor.varint())
                elif tag == _TAG_TRUE:
                    details[key] = True
                elif tag == _TAG_FALSE:
                    details[key] = False
                elif tag == _TAG_NONE:
                    details[key] = None
                elif tag == _TAG_JSON:
                    details[key] = json.loads(lookup(cursor.varint()))
                else:
                    raise TraceFormatError(
                        f"unknown value tag {tag} at offset {cursor.pos - 1}"
                    )
        except TraceFormatError:
            if strict:
                raise
            return
        count += 1
        yield TraceRecord(last_time, category, event, subject, details)


def load(path: str, strict: bool = True) -> tuple[dict, list[TraceRecord]]:
    """Read a whole trace file: ``(metadata, records)``.

    ``strict`` as in :func:`iter_records`: ``trace_tools.py gantt``,
    ``stats`` and ``dump --lenient`` load leniently, so a crashed run's
    partial trace still renders.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise TraceFormatError(f"cannot read trace {path}: {exc}") from None
    meta, cursor = read_header(data)
    return meta, list(iter_records(cursor, strict=strict))
