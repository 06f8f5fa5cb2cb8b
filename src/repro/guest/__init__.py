"""Linux-like guest OS substrate.

The guest kernel runs *threads* (user threads, system-wide kthreads, and
non-migratable per-CPU kthreads) on per-vCPU runqueues, with SMP load
balancing, a 1000 Hz scheduler tick with dynticks, futex-based blocking
synchronization, user- and kernel-level spinning, and cross-vCPU reschedule
IPIs — everything vScale's balancer (Algorithm 2) manipulates.
"""

from repro.guest.actions import (
    Action,
    Compute,
    BlockOn,
    SpinWait,
    YieldCPU,
    Exit,
    SpinFlag,
    UserSpinLock,
    WaitQueue,
)
from repro.guest.threads import Thread, ThreadKind
from repro.guest.kernel import GuestConfig, GuestKernel
from repro.guest.sync import (
    GuestMutex,
    CondVar,
    OpenMPBarrier,
    KernelSpinLock,
    Semaphore,
)
from repro.guest.hotplug import HotplugModel, KERNEL_VERSIONS
from repro.guest import procfs

__all__ = [
    "Action",
    "Compute",
    "BlockOn",
    "SpinWait",
    "YieldCPU",
    "Exit",
    "SpinFlag",
    "UserSpinLock",
    "WaitQueue",
    "Thread",
    "ThreadKind",
    "GuestConfig",
    "GuestKernel",
    "GuestMutex",
    "CondVar",
    "OpenMPBarrier",
    "KernelSpinLock",
    "Semaphore",
    "HotplugModel",
    "KERNEL_VERSIONS",
    "procfs",
]
