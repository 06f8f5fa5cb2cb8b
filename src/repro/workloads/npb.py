"""Parametric models of the NPB-OMP 3.3 applications.

We model each of the ten benchmarks as an OpenMP fork-join program with an
application-specific synchronization granularity: iterations of
(imbalanced compute phase -> team barrier), with ``lu`` additionally
running its *own* busy-wait relay (the paper found lu implements ad-hoc
pipeline synchronization outside OpenMP's control, which is why it improves
>60% under vScale regardless of the waiting policy).

The profile parameters are calibrated qualitatively against the paper:

* synchronization-intensive apps (``lu``, ``ua``, ``cg``, ``sp``, ``bt``,
  ``mg``) have frequent barriers and visible imbalance — these are the ones
  vScale accelerates heavily;
* ``ep``/``ft``/``is``/``dc`` are coarse-grained and barely affected.

These are behavioural models, not ports: the computation itself is opaque
``Compute`` time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.guest.actions import SpinFlag, SpinWait
from repro.guest.sync import KernelSpinLock
from repro.units import MS
from repro.workloads.base import AppHarness
from repro.workloads.openmp import OpenMPRuntime

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.guest.kernel import GuestKernel


@dataclass(frozen=True)
class NPBProfile:
    """Shape parameters of one benchmark."""

    name: str
    #: Number of barrier-separated iterations.
    iterations: int
    #: Mean per-thread compute per iteration, ns.
    phase_ns: int
    #: Coefficient of variation of the compute phase across threads.
    imbalance: float
    #: lu-style ad-hoc busy-wait relay between ranks, outside OpenMP.
    custom_spin: bool = False
    #: Team barrier frequency: one barrier every this many iterations.
    #: lu's pipelined SSOR sweeps only hit a full barrier per sweep; the
    #: intra-sweep synchronization is the rank-to-rank relay.
    barrier_every: int = 1


#: Calibrated profiles, at problem class W (the one class every figure
#: runs).  Total per-thread work is ~0.4-0.8 s so a full Figure 6 sweep
#: stays tractable; relative granularity mirrors the suite.
NPB_PROFILES: dict[str, NPBProfile] = {
    "bt": NPBProfile("bt", iterations=300, phase_ns=5 * MS, imbalance=0.25),
    "cg": NPBProfile("cg", iterations=600, phase_ns=2 * MS, imbalance=0.30),
    "dc": NPBProfile("dc", iterations=75, phase_ns=18 * MS, imbalance=0.12),
    "ep": NPBProfile("ep", iterations=6, phase_ns=220 * MS, imbalance=0.03),
    "ft": NPBProfile("ft", iterations=36, phase_ns=36 * MS, imbalance=0.08),
    "is": NPBProfile("is", iterations=48, phase_ns=26 * MS, imbalance=0.08),
    "lu": NPBProfile(
        "lu",
        iterations=450,
        phase_ns=2500_000,
        imbalance=0.25,
        custom_spin=True,
        barrier_every=10,
    ),
    "mg": NPBProfile("mg", iterations=480, phase_ns=2500_000, imbalance=0.25),
    "sp": NPBProfile("sp", iterations=420, phase_ns=3 * MS, imbalance=0.30),
    "ua": NPBProfile("ua", iterations=900, phase_ns=1300_000, imbalance=0.35),
}


class NPBApp:
    """One NPB run on a guest: build the team, run, report the makespan."""

    def __init__(
        self,
        kernel: "GuestKernel",
        profile: NPBProfile,
        spincount: int,
        rng: np.random.Generator,
        kernel_lock: KernelSpinLock | None = None,
        nthreads: int | None = None,
    ):
        self.kernel = kernel
        self.profile = profile
        self.rng = rng
        if nthreads is None:
            nthreads = len(kernel.domain.vcpus)
        self.runtime = OpenMPRuntime(
            kernel,
            spincount=spincount,
            rng=rng,
            kernel_lock=kernel_lock,
            team_size=nthreads,
        )
        self.harness = AppHarness(kernel, profile.name)
        # lu's relay flags: one chain per iteration, built lazily.
        self._relay_flags: dict[int, list[SpinFlag]] = {}

    def launch(self) -> None:
        profile = self.profile
        if profile.custom_spin or profile.barrier_every > 1:
            self._launch_pipelined()
            return
        phases = [(profile.phase_ns, profile.imbalance)] * profile.iterations
        self.runtime.parallel_region(self.harness, phases)

    def _launch_pipelined(self) -> None:
        """lu-style: rank-to-rank busy-wait relay, sparse team barriers."""
        profile = self.profile
        sweeps = max(1, profile.iterations // profile.barrier_every)
        barriers = [self.runtime.new_barrier(f"lu.sweep{s}") for s in range(sweeps)]

        def make_factory(rank: int):
            def factory(thread):
                return self._pipelined_worker(thread, rank, barriers)

            return factory

        self.harness.launch(
            [make_factory(r) for r in range(self.runtime.team_size)]
        )

    def _pipelined_worker(self, thread, rank: int, barriers):
        from repro.workloads.base import phase_compute

        profile = self.profile
        for iteration in range(profile.iterations):
            yield phase_compute(self.rng, profile.phase_ns, profile.imbalance)
            if profile.custom_spin:
                chain = self._chain(iteration)
                if rank > 0:
                    fired = yield SpinWait(chain[rank - 1], 10**12)
                    if not fired:
                        raise RuntimeError("lu relay spin timed out")
                chain[rank].fire_all()
            if (iteration + 1) % profile.barrier_every == 0:
                sweep = iteration // profile.barrier_every
                if sweep < len(barriers):
                    yield from barriers[sweep].wait(thread)

    # ------------------------------------------------------------------
    # lu's ad-hoc wavefront relay: rank r busy-waits (unboundedly — this
    # spin is hand-rolled, not under GOMP_SPINCOUNT) until rank r-1 passes
    # the baton, then passes its own.
    # ------------------------------------------------------------------
    def _chain(self, iteration: int) -> list[SpinFlag]:
        chain = self._relay_flags.get(iteration)
        if chain is None:
            chain = [
                SpinFlag(f"lu.relay.i{iteration}.r{r}")
                for r in range(self.runtime.team_size)
            ]
            for flag in chain:
                flag.kernel = self.kernel
            # Chains stay allocated for the whole run: the pipeline skew
            # between ranks is unbounded under stalls, and latched flags
            # let late arrivals fall straight through.
            self._relay_flags[iteration] = chain
        return chain

    # ------------------------------------------------------------------
    @property
    def done(self) -> bool:
        return self.harness.done

    @property
    def duration_ns(self) -> int:
        return self.harness.duration_ns
