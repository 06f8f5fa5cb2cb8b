"""Parametric models of the PARSEC 3.0 applications.

PARSEC programs are pthread-based (sleep-then-wakeup synchronization);
``freqmine`` is the one OpenMP member.  We model four structural families
and assign each application calibrated parameters:

``barrier``
    Iterative data-parallel codes that cross a hand-rolled
    mutex+condvar barrier every (short) stage — streamcluster is the
    canonical case (the paper measures ~183 IPIs/s/vCPU).
``pipeline``
    Producer/consumer stages over bounded queues; dedup additionally
    hammers a shared address-space semaphore, producing the paper's
    standout 940 IPIs/s/vCPU.
``locks``
    Frame-oriented codes (bodytrack, fluidanimate, x264, facesim, vips,
    canneal) that mix per-frame compute with mutex-protected shared state
    and a per-frame condvar barrier.
``compute``
    Coarse codes with negligible synchronization (blackscholes between
    sweeps, raytrace, swaptions with none at all).

``freqmine`` reuses the OpenMP runtime at the default 300 K spin count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.guest.sync import GuestMutex, KernelSpinLock, Semaphore
from repro.units import MS, US
from repro.workloads.base import AppHarness, phase_compute
from repro.workloads.openmp import OpenMPRuntime, SPINCOUNT_DEFAULT
from repro.workloads.pthreads import BoundedQueue, MutexCondBarrier

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.guest.kernel import GuestKernel
    from repro.guest.threads import Thread


@dataclass(frozen=True)
class ParsecProfile:
    """Shape parameters of one PARSEC application."""

    name: str
    kind: str  # barrier | pipeline | locks | compute | openmp
    iterations: int
    phase_ns: int
    imbalance: float
    #: Mutex critical sections per phase per thread (locks kind).
    cs_per_phase: int = 0
    #: Hold time of each critical section.
    cs_hold_ns: int = 3 * US
    #: Pipeline: items processed per worker (pipeline kind).
    items: int = 0
    #: Pipeline: shared-semaphore operations per item (dedup's mmap_sem).
    sem_ops_per_item: int = 0
    #: Fraction of each iteration that is a serial section executed by
    #: rank 0 while the team waits (streamcluster's pmedian bookkeeping,
    #: bodytrack's per-frame model update).  Serial sections make the app
    #: latency-bound: the barrier crossings around them cost cross-vCPU
    #: wake-ups in vanilla but stay local when vScale packs the team.
    serial_frac: float = 0.0


#: Calibrated profiles, at the ``simmedium`` input (the one input every
#: figure runs).
PARSEC_PROFILES: dict[str, ParsecProfile] = {
    "blackscholes": ParsecProfile("blackscholes", "compute", 8, 90 * MS, 0.05),
    "bodytrack": ParsecProfile(
        "bodytrack", "locks", 360, 1400 * US, 0.40, cs_per_phase=6, serial_frac=0.30
    ),
    "canneal": ParsecProfile(
        "canneal", "locks", 90, 8 * MS, 0.12, cs_per_phase=2, serial_frac=0.20
    ),
    "dedup": ParsecProfile(
        "dedup", "pipeline", 0, 700 * US, 0.45, items=2500, sem_ops_per_item=6
    ),
    "facesim": ParsecProfile(
        "facesim", "locks", 200, 3 * MS, 0.25, cs_per_phase=3, serial_frac=0.25
    ),
    "ferret": ParsecProfile(
        "ferret", "pipeline", 0, 4 * MS, 0.15, items=400, sem_ops_per_item=0
    ),
    "fluidanimate": ParsecProfile(
        "fluidanimate", "locks", 240, 2200 * US, 0.25, cs_per_phase=4, serial_frac=0.25
    ),
    "freqmine": ParsecProfile("freqmine", "openmp", 60, 11 * MS, 0.10),
    "raytrace": ParsecProfile("raytrace", "compute", 10, 60 * MS, 0.08),
    "streamcluster": ParsecProfile(
        "streamcluster", "barrier", 400, 1100 * US, 0.40, serial_frac=0.35
    ),
    "swaptions": ParsecProfile("swaptions", "compute", 1, 640 * MS, 0.04),
    "vips": ParsecProfile(
        "vips", "locks", 350, 1300 * US, 0.35, cs_per_phase=5, serial_frac=0.35
    ),
    "x264": ParsecProfile(
        "x264", "locks", 220, 2 * MS, 0.30, cs_per_phase=3, serial_frac=0.20
    ),
}


class ParsecApp:
    """One PARSEC run on a guest."""

    def __init__(
        self,
        kernel: "GuestKernel",
        profile: ParsecProfile,
        rng: np.random.Generator,
        kernel_lock: KernelSpinLock | None = None,
        nthreads: int | None = None,
    ):
        self.kernel = kernel
        self.profile = profile
        self.rng = rng
        self.kernel_lock = kernel_lock
        self.harness = AppHarness(kernel, profile.name)
        self.nthreads = (
            nthreads if nthreads is not None else len(kernel.domain.vcpus)
        )

    def launch(self) -> None:
        kind = self.profile.kind
        if kind == "barrier":
            self._launch_barrier()
        elif kind == "pipeline":
            self._launch_pipeline()
        elif kind == "locks":
            self._launch_locks()
        elif kind == "compute":
            self._launch_compute()
        elif kind == "openmp":
            self._launch_openmp()
        else:  # pragma: no cover - profiles are fixed above
            raise ValueError(f"unknown kind {kind!r}")

    # ------------------------------------------------------------------
    def _launch_barrier(self) -> None:
        profile = self.profile
        barrier = MutexCondBarrier(
            self.kernel, self.nthreads, f"{profile.name}.bar", self.kernel_lock
        )

        def make_factory(rank: int):
            def factory(thread: "Thread"):
                return self._barrier_worker(thread, rank, barrier)

            return factory

        self.harness.launch([make_factory(r) for r in range(self.nthreads)])

    def _barrier_worker(self, thread, rank, barrier):
        profile = self.profile
        parallel_ns = round(profile.phase_ns * (1.0 - profile.serial_frac))
        serial_ns = round(profile.phase_ns * profile.serial_frac * self.nthreads)
        for _ in range(profile.iterations):
            yield phase_compute(self.rng, parallel_ns, profile.imbalance)
            yield from barrier.wait(thread)
            if serial_ns:
                if rank == 0:
                    yield phase_compute(self.rng, serial_ns, 0.1)
                yield from barrier.wait(thread)

    # ------------------------------------------------------------------
    def _launch_pipeline(self) -> None:
        """One producer stage, N-1 worker consumers, a shared semaphore."""
        profile = self.profile
        queue = BoundedQueue(
            self.kernel, capacity=8, name=f"{profile.name}.q", kernel_lock=self.kernel_lock
        )
        shared_sem = Semaphore(
            self.kernel, count=1, name=f"{profile.name}.mmap_sem", kernel_lock=self.kernel_lock
        )
        consumers = max(1, self.nthreads - 1)

        def producer_factory(thread: "Thread"):
            return self._pipeline_producer(thread, queue, consumers)

        def consumer_factory(thread: "Thread"):
            return self._pipeline_consumer(thread, queue, shared_sem)

        self.harness.launch([producer_factory] + [consumer_factory] * consumers)

    def _pipeline_producer(self, thread, queue, consumers):
        profile = self.profile
        # Chunking/read stage: cheap per item relative to workers.
        per_item = max(20 * US, profile.phase_ns // 4)
        for index in range(profile.items):
            yield phase_compute(self.rng, per_item, profile.imbalance)
            yield from queue.put(thread, index)
        yield from queue.close(thread)

    def _pipeline_consumer(self, thread, queue, shared_sem):
        profile = self.profile
        while True:
            item = yield from queue.get(thread)
            if item is None:
                return
            for _ in range(profile.sem_ops_per_item):
                yield from shared_sem.down(thread)
                yield phase_compute(self.rng, 15 * US, 0.3)
                yield from shared_sem.up(thread)
            yield phase_compute(self.rng, profile.phase_ns, profile.imbalance)

    # ------------------------------------------------------------------
    def _launch_locks(self) -> None:
        profile = self.profile
        shared = GuestMutex(self.kernel, f"{profile.name}.state", kernel_lock=self.kernel_lock)
        frame_barrier = MutexCondBarrier(
            self.kernel, self.nthreads, f"{profile.name}.frame", self.kernel_lock
        )

        def make_factory(rank: int):
            def factory(thread: "Thread"):
                return self._locks_worker(thread, rank, shared, frame_barrier)

            return factory

        self.harness.launch([make_factory(r) for r in range(self.nthreads)])

    def _locks_worker(self, thread, rank, shared, frame_barrier):
        profile = self.profile
        parallel_ns = round(profile.phase_ns * (1.0 - profile.serial_frac))
        serial_ns = round(profile.phase_ns * profile.serial_frac * self.nthreads)
        for _ in range(profile.iterations):
            slice_ns = parallel_ns // max(1, profile.cs_per_phase)
            for _ in range(profile.cs_per_phase):
                yield phase_compute(self.rng, slice_ns, profile.imbalance)
                yield from shared.lock(thread)
                yield phase_compute(self.rng, profile.cs_hold_ns, 0.2)
                yield from shared.unlock(thread)
            yield from frame_barrier.wait(thread)
            if serial_ns:
                # Per-frame model update on the main thread.
                if rank == 0:
                    yield phase_compute(self.rng, serial_ns, 0.1)
                yield from frame_barrier.wait(thread)

    # ------------------------------------------------------------------
    def _launch_compute(self) -> None:
        profile = self.profile
        barrier = MutexCondBarrier(
            self.kernel, self.nthreads, f"{profile.name}.join", self.kernel_lock
        )

        def factory(thread: "Thread"):
            return self._compute_worker(thread, barrier)

        self.harness.launch([factory] * self.nthreads)

    def _compute_worker(self, thread, barrier):
        profile = self.profile
        for _ in range(profile.iterations):
            yield phase_compute(self.rng, profile.phase_ns, profile.imbalance)
            yield from barrier.wait(thread)

    # ------------------------------------------------------------------
    def _launch_openmp(self) -> None:
        profile = self.profile
        runtime = OpenMPRuntime(
            self.kernel,
            spincount=SPINCOUNT_DEFAULT,
            rng=self.rng,
            kernel_lock=self.kernel_lock,
        )
        phases = [(profile.phase_ns, profile.imbalance)] * profile.iterations
        runtime.parallel_region(self.harness, phases)

    # ------------------------------------------------------------------
    @property
    def done(self) -> bool:
        return self.harness.done

    @property
    def duration_ns(self) -> int:
        return self.harness.duration_ns
