"""repro — a reproduction of vScale (EuroSys 2016).

vScale lets an SMP virtual machine scale its number of active vCPUs, in
microseconds, to match the physical CPU share it can actually obtain.  This
package reimplements the whole stack as a deterministic discrete-event
simulation: a Xen-style credit scheduler (:mod:`repro.hypervisor`), a
Linux-like guest kernel (:mod:`repro.guest`), vScale itself
(:mod:`repro.core`), the paper's workloads (:mod:`repro.workloads`) and an
experiment harness regenerating every table and figure
(:mod:`repro.experiments`).

Quick start::

    from repro.experiments.setups import ScenarioBuilder

    scenario = ScenarioBuilder(seed=7).with_worker_vm(vcpus=4).with_background_vms(2)
    # ... see examples/quickstart.py for a complete run.

The top level re-exports the time units of :mod:`repro.units`: simulated
time is integer nanoseconds, written as multiples of ``US``, ``MS`` and
``SEC``.
"""

from repro.units import MS, SEC, US

__version__ = "1.0.0"

__all__ = ["US", "MS", "SEC", "__version__"]
