"""vScale's primary contribution: the CPU-extendability algorithm, the
hypervisor/guest communication channel, the fast vCPU balancer (freeze /
unfreeze), the user-space daemon, and the baseline scaling managers the
paper compares against."""

from repro.core.extendability import (
    VMUsage,
    ExtendabilityResult,
    compute_extendability,
    VScaleExtension,
)
from repro.core.channel import ChannelCosts, VScaleChannel
from repro.core.balancer import BalancerCosts, FreezeReport, VScaleBalancer
from repro.core.daemon import DaemonConfig, VScaleDaemon
from repro.core.baselines import FixedVCPUPolicy, HotplugScaler, VCPUBalManager

__all__ = [
    "VMUsage",
    "ExtendabilityResult",
    "compute_extendability",
    "VScaleExtension",
    "ChannelCosts",
    "VScaleChannel",
    "BalancerCosts",
    "FreezeReport",
    "VScaleBalancer",
    "DaemonConfig",
    "VScaleDaemon",
    "FixedVCPUPolicy",
    "HotplugScaler",
    "VCPUBalManager",
]
