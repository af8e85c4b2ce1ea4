"""Fault injection & resilience (``repro.faults``).

Seeded, deterministic hardware-fault injection for the simulated
accelerator, plus the checksum primitives its detection machinery uses.
Arm a :class:`FaultPlan` around any simulation or host-runtime call::

    from repro.faults import FaultPlan, SEUFault, arm

    plan = FaultPlan(seed=7, faults=(SEUFault(site="block-buffer"),))
    with arm(plan) as injector:
        ...  # run kernels; checksums detect, the retry path recovers
    print(injector.fired, injector.detections, injector.recoveries)

With no plan armed every hook site reduces to one ``is None`` test, so
the fault-free path stays within noise of the uninstrumented simulator
(see ``benchmarks/bench_resilience.py``).
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

from repro.errors import ConfigurationError
from repro.faults import hooks
from repro.faults.checksum import crc32_array
from repro.faults.injector import FaultInjector, FaultRecord
from repro.faults.plan import (
    ChannelCorruptFault,
    ChannelStallFault,
    Fault,
    FaultPlan,
    FmaxDerateFault,
    MemoryStallFault,
    SensorDropoutFault,
    SEUFault,
    TransferFault,
)


#: Serializes the check-and-set in :func:`arm` so two threads racing to
#: arm cannot both win; one gets the injector, the other a typed error.
_ARM_LOCK = threading.Lock()


@contextmanager
def arm(plan: FaultPlan):
    """Arm ``plan`` for the duration of the ``with`` block.

    Yields the live :class:`FaultInjector`; always disarms on exit.
    Nested arming is rejected — one plan governs one run.

    Thread visibility: ``hooks.ACTIVE`` is process-global, not
    thread-local — a plan armed here is seen by *every* thread touching
    a hook site (deliberate: the serving layer's dispatch thread must
    observe a plan armed by the submitting thread, as the overload
    campaign relies on).  Arming itself is race-free under ``_ARM_LOCK``,
    but the injector's one-shot fault state is not internally locked;
    concurrent hook sites may interleave, which the chaos harness
    tolerates by only asserting on detections/recoveries totals.
    """
    with _ARM_LOCK:
        if hooks.ACTIVE is not None:
            raise ConfigurationError("a FaultPlan is already armed")
        injector = FaultInjector(plan)
        hooks.ACTIVE = injector
    try:
        yield injector
    finally:
        hooks.ACTIVE = None


def disarm() -> None:
    """Force-disarm whatever is armed (test cleanup helper)."""
    hooks.ACTIVE = None


def active() -> FaultInjector | None:
    """The currently armed injector, or ``None``."""
    return hooks.ACTIVE


__all__ = [
    "FaultPlan",
    "Fault",
    "FaultInjector",
    "FaultRecord",
    "SEUFault",
    "ChannelCorruptFault",
    "ChannelStallFault",
    "TransferFault",
    "SensorDropoutFault",
    "FmaxDerateFault",
    "MemoryStallFault",
    "arm",
    "disarm",
    "active",
    "crc32_array",
]
