"""The scheduler zoo: pluggable pool schedulers behind one interface.

Importing this package populates the registry.  See
:mod:`repro.hypervisor.schedulers.base` for the interface, the selection
rules (explicit name > ``REPRO_SCHEDULER`` > ``credit``) and the
capability flags the conformance suite and sanitizer key off.
"""

from repro.hypervisor.schedulers.base import (
    DEFAULT_SCHEDULER,
    ENV_VAR,
    QueueScheduler,
    Scheduler,
    available,
    create,
    get,
    register,
    resolve_name,
)
from repro.hypervisor.schedulers.cfs import CfsScheduler
from repro.hypervisor.schedulers.credit import CreditScheduler
from repro.hypervisor.schedulers.credit2 import Credit2Scheduler
from repro.hypervisor.schedulers.rr import RoundRobinScheduler
from repro.hypervisor.schedulers.vrt import VrtScheduler

__all__ = [
    "DEFAULT_SCHEDULER",
    "ENV_VAR",
    "QueueScheduler",
    "Scheduler",
    "available",
    "create",
    "get",
    "register",
    "resolve_name",
    "CfsScheduler",
    "CreditScheduler",
    "Credit2Scheduler",
    "RoundRobinScheduler",
    "VrtScheduler",
]
