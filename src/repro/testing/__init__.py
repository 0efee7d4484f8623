"""Deterministic fault-injection tooling for the repo's own infrastructure.

The paper injects faults into hardware to characterise trojans; this
package injects faults into the *campaign runner* to characterise its
fault tolerance — same methodology, pointed inward.  Its faults are
decorators of the stores' byte backends (:class:`FlakyTransport`,
:class:`FaultHookDirectory`), so no production module imports it.
"""

from .chaos import (
    FaultHookDirectory,
    FaultInjection,
    FaultKind,
    FaultPlan,
    FlakyTransport,
    SyncFlag,
    TransportFaultKind,
    WindowFaultStore,
)
from .faults import (
    FaultClock,
    FaultSchedule,
    FaultWindow,
    OneShotTrigger,
)

__all__ = [
    "FaultClock",
    "FaultHookDirectory",
    "FaultInjection",
    "FaultKind",
    "FaultPlan",
    "FaultSchedule",
    "FaultWindow",
    "FlakyTransport",
    "OneShotTrigger",
    "SyncFlag",
    "TransportFaultKind",
    "WindowFaultStore",
]
