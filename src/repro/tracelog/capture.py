"""Wiring a :class:`~repro.tracelog.codec.TraceWriter` into a machine.

Two entry points:

* ``REPRO_TRACE=path`` in the environment — every machine built in the
  process streams its trace to ``path`` (``path``, ``path.1``, ``path.2``
  … when a run builds several machines), and the files are closed at
  exit.  Zero code changes needed; the hook is a no-op when the variable
  is unset, so untraced runs stay bit-identical to the goldens.
* :func:`capture_to` — a context manager for programmatic capture, used
  by ``scripts/trace_tools.py capture`` and the trace tests.

``REPRO_TRACE`` is a *single-process* facility: one counter numbers the
files and an exit hook closes them, which a forked pool worker never
runs.  The parallel executor therefore runs its cells in-process while
``REPRO_TRACE`` is set.
"""

from __future__ import annotations

import atexit
import contextlib
import os
from typing import TYPE_CHECKING, Iterator

from repro.sim.trace import Tracer
from repro.tracelog.codec import TraceWriter

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.hypervisor.machine import Machine

#: Categories captured by default.  "dispatch" (one record per simulator
#: event) is opt-in via the categories argument (``trace_tools.py capture
#: --categories``): it multiplies trace volume several-fold and is only
#: needed when debugging the engine itself.
DEFAULT_CATEGORIES = frozenset(Tracer.KNOWN_CATEGORIES - {"dispatch"})

#: Cap on machines traced per capture, so a pathological loop building
#: machines cannot fill the disk.
MACHINE_LIMIT = 64


class _Capture:
    """One active capture: a base path plus per-machine writers."""

    def __init__(self, path: str, meta: dict | None, categories):
        self.path = str(path)
        self.meta = dict(meta or {})
        self.categories = frozenset(categories or DEFAULT_CATEGORIES)
        self.writers: list[TraceWriter] = []

    def _next_path(self) -> str:
        n = len(self.writers)
        return self.path if n == 0 else f"{self.path}.{n}"

    def attach(self, machine: "Machine") -> None:
        if len(self.writers) >= MACHINE_LIMIT:
            return
        meta = dict(self.meta)
        meta["machine"] = len(self.writers)
        meta["seed"] = machine.seed
        meta["categories"] = sorted(self.categories)
        writer = TraceWriter(self._next_path(), meta)
        self.writers.append(writer)
        # Stream through the tracer's own record buffer: emit's append
        # feeds the writer's batch directly.
        writer.stream_into(machine.install_tracer(self.categories))

    def close(self) -> None:
        for writer in self.writers:
            writer.close()


_active: _Capture | None = None


def maybe_install(machine: "Machine") -> None:
    """Machine.__init__ hook: attach the active capture, if any.

    Checks the in-process capture first (``capture_to``), then the
    environment.  When neither is set this is a cheap no-op — the
    untraced fast path.
    """
    global _active
    if _active is not None:
        _active.attach(machine)
        return
    path = os.environ.get("REPRO_TRACE")
    if not path:
        return
    _active = _Capture(path, {"source": "env"}, DEFAULT_CATEGORIES)
    atexit.register(_close_env_capture)
    _active.attach(machine)


def _close_env_capture() -> None:
    global _active
    if _active is not None:
        _active.close()
        _active = None


@contextlib.contextmanager
def capture_to(
    path: str, meta: dict | None = None, categories=None
) -> Iterator[_Capture]:
    """Capture every machine built inside the block to ``path``.

    Nesting is rejected: a second in-process capture (or an env capture
    already attached to a machine) would silently steal the other's
    machines.
    """
    global _active
    if _active is not None:
        raise RuntimeError("a trace capture is already active in this process")
    _active = capture = _Capture(path, meta, categories)
    try:
        yield capture
    finally:
        _active = None
        capture.close()
