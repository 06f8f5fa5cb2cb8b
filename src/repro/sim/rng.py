"""Seeded randomness plumbing.

Every stochastic component (workload phase jitter, cost-model noise, arrival
processes) draws from its own :class:`numpy.random.Generator`, derived from a
single experiment seed through named streams.  Naming the streams — rather
than handing out generators in creation order — means adding a new component
does not perturb the random numbers seen by existing ones, which keeps
recorded experiment outputs stable across refactors.

Buffered streams
----------------
Hot paths that draw one sample at a time (cost jitter on every channel read,
fault-injection coin flips, workload phase lengths) pay numpy's per-call
overhead for a single double.  :class:`BufferedStream` prefetches a block of
*standard* variates and hands them out one by one.  This is bit-identical to
unbuffered code because numpy's ``Generator`` consumes the underlying
bitstream identically for ``n`` scalar draws and one size-``n`` block draw
(a property the test suite pins down), and because scaling is exact:
``normal(loc, scale) == loc + scale * standard_normal()`` and
``exponential(scale) == scale * standard_exponential()`` bit-for-bit.

The one rule: a buffered stream serves a single distribution *kind*.
Interleaving kinds on one generator would consume the bitstream in a
different order than sequential code, so the factory enforces the kind at
:meth:`SeedSequenceFactory.stream` time and refuses to hand out a raw
generator for a name that is already buffered (and vice versa).
"""

from __future__ import annotations

import zlib

import numpy as np

#: How many variates a buffered stream prefetches per refill.
_DEFAULT_BLOCK = 512


class BufferedStream:
    """Single-kind, block-buffered draws from one named random stream.

    Mirrors the ``numpy.random.Generator`` call signatures for its kind
    (``normal(loc, scale, size=None)``, ``exponential(scale, size=None)``,
    ``random(size=None)``), so it is a drop-in replacement at call sites.
    """

    __slots__ = ("name", "kind", "_rng", "_block", "_buf", "_len", "_pos")

    _KINDS = ("random", "normal", "exponential")

    def __init__(
        self,
        name: str,
        kind: str,
        rng: np.random.Generator,
        block: int = _DEFAULT_BLOCK,
    ):
        if kind not in self._KINDS:
            raise ValueError(f"unknown stream kind {kind!r}; expected {self._KINDS}")
        if block < 1:
            raise ValueError("block size must be positive")
        self.name = name
        self.kind = kind
        self._rng = rng
        self._block = block
        self._buf = None
        self._len = 0
        self._pos = 0

    def _draw(self, n: int) -> np.ndarray:
        rng = self._rng
        if self.kind == "normal":
            return rng.standard_normal(n)
        if self.kind == "exponential":
            return rng.standard_exponential(n)
        return rng.random(n)

    def _next(self) -> float:
        pos = self._pos
        if pos >= self._len:
            # tolist() converts to Python floats — the same IEEE doubles,
            # but scalar arithmetic on them runs at interpreter speed
            # instead of paying numpy's np.float64 boxing per operation.
            self._buf = self._draw(self._block).tolist()
            self._len = self._block
            pos = 0
        self._pos = pos + 1
        return self._buf[pos]

    def _take(self, n: int) -> np.ndarray:
        """The next ``n`` variates, consuming the stream sequentially."""
        avail = self._len - self._pos
        if n <= avail:
            out = np.asarray(self._buf[self._pos : self._pos + n])
            self._pos += n
            return out
        head = self._buf[self._pos : self._len] if avail else []
        self._pos = self._len = 0
        self._buf = None
        tail = self._draw(n - avail)
        if not head:
            return tail
        return np.concatenate([np.asarray(head), tail])

    def _require(self, kind: str) -> None:
        if self.kind != kind:
            raise RuntimeError(
                f"stream {self.name!r} buffers {self.kind!r} variates; "
                f"drawing {kind!r} from it would desynchronize the bitstream"
            )

    # -- numpy.random.Generator-compatible surface ----------------------
    def random(self, size: int | None = None):
        self._require("random")
        if size is None:
            return self._next()
        return self._take(size).copy()

    def normal(self, loc: float = 0.0, scale: float = 1.0, size: int | None = None):
        self._require("normal")
        if size is None:
            return loc + scale * self._next()
        return self.normal_batch(loc, scale, size)

    def exponential(self, scale: float = 1.0, size: int | None = None):
        self._require("exponential")
        if size is None:
            return scale * self._next()
        return self.exponential_batch(scale, size)

    # -- explicit batch draws -------------------------------------------
    def normal_batch(self, loc: float, scale: float, size: int) -> np.ndarray:
        self._require("normal")
        return loc + scale * self._take(size)

    def exponential_batch(self, scale: float, size: int) -> np.ndarray:
        self._require("exponential")
        return scale * self._take(size)

    def state_dict(self) -> dict:
        """JSON-able view of the stream position.

        Captures the underlying bit-generator state plus any prefetched
        variates not yet handed out, so two streams with equal state
        dicts will produce identical future draws.
        """
        return {
            "kind": self.kind,
            "generator": _jsonable(self._rng.bit_generator.state),
            "pending": list(self._buf[self._pos : self._len]) if self._buf else [],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BufferedStream({self.name!r}, kind={self.kind!r})"


def _jsonable(value):
    """Recursively convert numpy scalars inside a state dict to Python."""
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value


class SeedSequenceFactory:
    """Derive independent, named random generators from one root seed."""

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._issued: dict[str, np.random.Generator] = {}
        self._streams: dict[str, BufferedStream] = {}

    def _make_generator(self, name: str) -> np.random.Generator:
        # Hash the name into a stable 32-bit spawn key.  zlib.crc32 is
        # deterministic across processes (unlike hash()).
        key = zlib.crc32(name.encode("utf-8"))
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=(key,))
        return np.random.Generator(np.random.PCG64(seq))

    def generator(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use.

        The same name always maps to the same stream within a factory, so a
        component may re-request its generator instead of storing it.
        """
        if name in self._streams:
            raise RuntimeError(
                f"stream {name!r} is buffered; drawing from the raw generator "
                "would desynchronize it (use stream() instead)"
            )
        generator = self._issued.get(name)
        if generator is None:
            generator = self._make_generator(name)
            self._issued[name] = generator
        return generator

    def stream(
        self, name: str, kind: str, block: int = _DEFAULT_BLOCK
    ) -> BufferedStream:
        """Return the :class:`BufferedStream` for ``name``, creating it once.

        All consumers of ``name`` must agree on the ``kind``; mixing kinds
        (or mixing buffered and raw access) raises, because either would
        break bit-identity with unbuffered sequential draws.
        """
        stream = self._streams.get(name)
        if stream is None:
            if name in self._issued:
                raise RuntimeError(
                    f"generator {name!r} was already handed out raw; "
                    "buffering it now would desynchronize existing users"
                )
            stream = BufferedStream(name, kind, self._make_generator(name), block)
            self._streams[name] = stream
        elif stream.kind != kind:
            raise RuntimeError(
                f"stream {name!r} already buffers {stream.kind!r} variates, "
                f"requested {kind!r}"
            )
        return stream

    def state_dict(self) -> dict:
        """JSON-able view of every stream this factory has issued.

        Stream *positions* matter, not just the seed: two factories with
        the same seed but different draw counts diverge on the next draw,
        so machine-state equality must compare bit-generator states.
        """
        return {
            "seed": self.seed,
            "generators": {
                name: _jsonable(gen.bit_generator.state)
                for name, gen in sorted(self._issued.items())
            },
            "streams": {
                name: stream.state_dict()
                for name, stream in sorted(self._streams.items())
            },
        }

    def spawn(self, name: str) -> "SeedSequenceFactory":
        """Create a child factory with an independent root, for sub-systems."""
        key = zlib.crc32(name.encode("utf-8"))
        return SeedSequenceFactory((self.seed * 1_000_003 + key) % 2**63)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SeedSequenceFactory(seed={self.seed})"


def jittered(rng, mean_ns: int, rel_sigma: float = 0.05) -> int:
    """Sample a cost around ``mean_ns`` with relative gaussian jitter.

    Used by the cost models (channel reads, balancer steps) so that repeated
    "measurements" show realistic spread instead of a single repeated value.
    The result is clamped to at least 1ns so durations stay positive.
    ``rng`` may be a ``numpy.random.Generator`` or a normal-kind
    :class:`BufferedStream` — the sampled value is bit-identical either way.
    """
    value = rng.normal(mean_ns, mean_ns * rel_sigma)
    return max(1, round(value))


def jittered_sum(rng, costs) -> int:
    """Sum of independently jittered costs, drawn in one coalesced pass.

    ``costs`` is a sequence of ``(mean_ns, rel_sigma)`` pairs.  The hot
    cost models chain several :func:`jittered` samples per operation (a
    channel read is syscall + hypercall; a balancer step is six
    components), and each call pays four interpreter frames — wrapper,
    ``normal``, kind check, buffer step.  This helper walks the buffered
    stream directly, one frame per sample.

    Bit-identical to summing sequential ``jittered`` calls — the same
    variates come off the same stream positions (so machine-state
    fingerprints of the stream state are unchanged), the per-sample
    scaling uses the same association ``mean + (mean * sigma) * x``, and
    integer summation is exact.
    """
    if isinstance(rng, BufferedStream) and rng.kind == "normal":
        total = 0
        for mean_ns, rel_sigma in costs:
            total += max(1, round(mean_ns + mean_ns * rel_sigma * rng._next()))
        return total
    return sum(jittered(rng, mean_ns, rel_sigma) for mean_ns, rel_sigma in costs)
