"""Content-addressed on-disk cache for experiment cells.

A *cell* is a pure function of its parameters: the simulator draws all
randomness from the explicit seed, so re-running a cell with the same
(experiment, function, parameters, scheduler, code) always produces the
same result object.  That makes finished cells safe to memoize on disk:
the cache key is a SHA-256 over the experiment name, the fully-qualified
cell function, the canonicalized parameters (which include seed and work
scale), the default scheduler (``REPRO_SCHEDULER`` or ``credit``, which
every cell without an explicit scheduler runs on), and a fingerprint of
the ``repro`` source tree, so any code change invalidates every prior
entry.

Entries are pickles stored under a two-level fan-out
(``<root>/<key[:2]>/<key>.pkl``) and written atomically (temp file +
rename), so concurrent workers and concurrent runner invocations can
share one cache directory safely.

Each entry is a self-verifying container: a magic prefix, the SHA-256 of
the payload, then the pickled payload.  :meth:`ResultCache.get` verifies
the digest before unpickling; anything that fails — bad magic,
truncation, digest mismatch, unpicklable payload — is moved into
``<root>/quarantine/`` (preserved for forensics, never retried), logged
in :attr:`ResultCache.corruption_log`, and reported as a MISS so the
grid recomputes the cell instead of crashing.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import tempfile
from enum import Enum
from pathlib import Path
from typing import Any, Callable, Iterator

from repro.hypervisor.schedulers import resolve_name

#: Sentinel returned by :meth:`ResultCache.get` on a miss (``None`` is a
#: legitimate cached value).
MISS = object()

_FINGERPRINT: str | None = None


def code_fingerprint() -> str:
    """Hash every ``.py`` file of the installed ``repro`` package.

    Computed once per process; any source change yields a new fingerprint
    and therefore a disjoint key space — stale results can never be
    served across code versions.
    """
    global _FINGERPRINT
    if _FINGERPRINT is None:
        import repro

        root = Path(repro.__file__).resolve().parent
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _FINGERPRINT = digest.hexdigest()
    return _FINGERPRINT


def canonical(value: Any) -> Any:
    """Reduce a parameter value to a JSON-stable, type-tagged form.

    Enums, dataclasses, and containers are tagged so that values of
    different types can never alias each other's encodings (e.g. the
    string ``"Xen/Linux"`` and ``Config.VANILLA`` stay distinct keys).
    """
    if isinstance(value, Enum):
        return ["enum", type(value).__name__, canonical(value.value)]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return [
            "dataclass",
            type(value).__name__,
            {
                f.name: canonical(getattr(value, f.name))
                for f in dataclasses.fields(value)
            },
        ]
    if isinstance(value, dict):
        return {
            "dict": sorted(
                ([canonical(k), canonical(v)] for k, v in value.items()),
                key=lambda kv: json.dumps(kv[0], sort_keys=True),
            )
        }
    if isinstance(value, (list, tuple)):
        return [type(value).__name__, [canonical(v) for v in value]]
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, int):
        return ["int", str(value)]
    if isinstance(value, float):
        return ["float", value.hex()]
    return ["repr", type(value).__name__, repr(value)]


def cell_key(
    experiment: str,
    fn: Callable,
    params: dict,
    fingerprint: str | None = None,
) -> str:
    """Compute the content-addressed key of one experiment cell."""
    payload = {
        "experiment": experiment,
        "fn": f"{fn.__module__}:{fn.__qualname__}",
        "params": canonical(params),
        "scheduler": resolve_name(None),
        "code": code_fingerprint() if fingerprint is None else fingerprint,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


#: Container prefix identifying the self-verifying entry format.
MAGIC = b"reprocache2\n"
_DIGEST_LEN = hashlib.sha256().digest_size


class CorruptEntry(Exception):
    """Internal: an entry failed container validation (reason in args)."""


class ResultCache:
    """Pickle store addressed by :func:`cell_key` digests."""

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        #: Keys whose entries were quarantined since the last drain.
        self.corruption_log: list[str] = []

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    def get(self, key: str) -> Any:
        """Return the cached value for ``key``, or :data:`MISS`.

        A corrupt or truncated entry is quarantined and treated as a
        miss — the caller recomputes; nothing raises.
        """
        path = self._path(key)
        try:
            data = path.read_bytes()
        except OSError:
            return MISS
        try:
            return self._decode(data)
        except Exception:
            self._quarantine(key, path)
            return MISS

    @staticmethod
    def _decode(data: bytes) -> Any:
        if not data.startswith(MAGIC):
            raise CorruptEntry("bad magic")
        body = data[len(MAGIC):]
        if len(body) < _DIGEST_LEN:
            raise CorruptEntry("truncated header")
        digest, payload = body[:_DIGEST_LEN], body[_DIGEST_LEN:]
        if hashlib.sha256(payload).digest() != digest:
            raise CorruptEntry("digest mismatch")
        return pickle.loads(payload)

    def _quarantine(self, key: str, path: Path) -> None:
        """Move a bad entry aside (kept for forensics) and log the key."""
        target_dir = self.root / "quarantine"
        target_dir.mkdir(parents=True, exist_ok=True)
        try:
            os.replace(path, target_dir / path.name)
        except OSError:
            path.unlink(missing_ok=True)
        self.corruption_log.append(key)

    def drain_corruptions(self) -> list[str]:
        """Return and clear the keys quarantined since the last drain."""
        drained, self.corruption_log = self.corruption_log, []
        return drained

    def quarantined(self) -> list[Path]:
        return sorted((self.root / "quarantine").glob("*.pkl"))

    def put(self, key: str, value: Any) -> None:
        """Store ``value`` under ``key`` atomically."""
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        blob = MAGIC + hashlib.sha256(payload).digest() + payload
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(blob)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def entries(self) -> Iterator[Path]:
        yield from self.root.glob("??/*.pkl")

    def __len__(self) -> int:
        return sum(1 for _ in self.entries())

    def size_bytes(self) -> int:
        return sum(path.stat().st_size for path in self.entries())

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        for path in list(self.entries()):
            path.unlink(missing_ok=True)
            removed += 1
        return removed

    def prune(
        self, max_entries: int | None = None, max_bytes: int | None = None
    ) -> int:
        """Evict oldest entries (by mtime) until within both limits.

        Returns the number of entries evicted.
        """
        stats = []
        for path in self.entries():
            try:
                stat = path.stat()
            except OSError:
                continue
            stats.append((stat.st_mtime, stat.st_size, path))
        stats.sort()  # oldest first
        count = len(stats)
        total = sum(size for _, size, _ in stats)
        evicted = 0
        for _, size, path in stats:
            over_entries = max_entries is not None and count > max_entries
            over_bytes = max_bytes is not None and total > max_bytes
            if not (over_entries or over_bytes):
                break
            path.unlink(missing_ok=True)
            count -= 1
            total -= size
            evicted += 1
        return evicted
