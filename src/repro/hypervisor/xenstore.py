"""XenStore: the hierarchical control-plane store between dom0 and guests.

Xen's toolstack drives guests through XenStore — a small key/value tree
with *watches*: dom0 writes ``/local/domain/<id>/cpu/<n>/availability`` and
the guest's XenBus driver, watching that subtree, invokes its callback
(which then runs CPU hotplug).  The paper's VCPU-Bal baseline uses exactly
this path, and its latency (a dom0 round trip plus the watch upcall) is
part of why centralized scaling is slow.

The model keeps the store as a real tree with watch registration and
fires watch callbacks after a configurable round-trip latency on the
simulator clock.  :class:`repro.core.baselines.VCPUBalManager` writes the
availability keys through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, TYPE_CHECKING

from repro.units import US

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.hypervisor.machine import Machine

#: Measured-scale cost of one XenStore transaction (socket + daemon walk).
DEFAULT_WRITE_LATENCY_NS = 120 * US
#: Additional delay before a watching domain's callback fires (XenBus
#: event-channel upcall plus the watch thread scheduling in the guest).
DEFAULT_WATCH_LATENCY_NS = 180 * US


class XenStoreError(KeyError):
    """Raised for reads of paths that do not exist."""


@dataclass
class _Watch:
    path_prefix: str
    callback: Callable[[str, str], None]


class XenStore:
    """The store shared by dom0 and all guests of one machine."""

    def __init__(
        self,
        machine: "Machine",
        write_latency_ns: int = DEFAULT_WRITE_LATENCY_NS,
        watch_latency_ns: int = DEFAULT_WATCH_LATENCY_NS,
    ):
        self.machine = machine
        self.write_latency_ns = write_latency_ns
        self.watch_latency_ns = watch_latency_ns
        self._tree: dict[str, str] = {}
        self._watches: list[_Watch] = []
        self.writes = 0
        self.watch_fires = 0

    # ------------------------------------------------------------------
    @staticmethod
    def _normalize(path: str) -> str:
        if not path.startswith("/"):
            raise ValueError(f"XenStore paths are absolute: {path!r}")
        return path.rstrip("/") or "/"

    # ------------------------------------------------------------------
    def read(self, path: str) -> str:
        path = self._normalize(path)
        try:
            return self._tree[path]
        except KeyError:
            raise XenStoreError(path) from None

    def exists(self, path: str) -> bool:
        return self._normalize(path) in self._tree

    def write(self, path: str, value: str) -> None:
        """Write a key; watches fire after the modeled latencies.

        The write itself lands after ``write_latency_ns`` (the caller's
        transaction round trip); each watch callback fires
        ``watch_latency_ns`` after that.
        """
        path = self._normalize(path)
        self.writes += 1
        self.machine.sim.schedule(
            self.write_latency_ns, self._commit, path, str(value)
        )

    def _commit(self, path: str, value: str) -> None:
        self._tree[path] = value
        for watch in self._watches:
            if path == watch.path_prefix or path.startswith(watch.path_prefix + "/"):
                self.machine.sim.schedule(
                    self.watch_latency_ns, self._fire, watch, path, value
                )

    def _fire(self, watch: _Watch, path: str, value: str) -> None:
        self.watch_fires += 1
        watch.callback(path, value)

    # ------------------------------------------------------------------
    def watch(self, path_prefix: str, callback: Callable[[str, str], None]) -> None:
        """Register a watch on a subtree."""
        self._watches.append(_Watch(self._normalize(path_prefix), callback))


def availability_path(domain_name: str, vcpu_index: int) -> str:
    """The conventional per-vCPU availability key."""
    return f"/local/domain/{domain_name}/cpu/{vcpu_index}/availability"
