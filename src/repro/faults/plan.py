"""Seeded, deterministic fault plans.

A :class:`FaultPlan` is a declarative list of hardware faults to inject
into one run: single-event upsets in on-chip or external memory, channel
corruption and stall bursts, PCIe transfer failures, power-sensor
dropouts, clock derating, and memory-port stalls in the cycle simulator.

Plans are *data*: arming one (``repro.faults.arm``) builds a
:class:`repro.faults.FaultInjector` whose behaviour is a pure function
of ``(plan, simulation)``, so two runs with the same seed inject — and
detect, and recover from — byte-identical faults.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union, get_args

from repro.errors import ConfigurationError

#: Sites accepted by :class:`SEUFault`: the memories a request touches.
SEU_SITES = ("block-buffer", "dram")


@dataclass(frozen=True)
class SEUFault:
    """Single-event upset: flip one bit of one word in a memory.

    ``site`` selects the memory: ``"block-buffer"`` (the on-chip block
    buffer of the functional accelerator — the BRAM shift registers'
    stand-in, touched after the read kernel's gather and after every PE
    update) or ``"dram"`` (a device buffer at rest).  The fault fires
    on the ``at_touch``-th write/update of that memory; ``word`` and
    ``bit`` default to seeded-random positions.
    """

    at_touch: int = 0
    site: str = "block-buffer"
    word: int | None = None
    bit: int | None = None

    def __post_init__(self) -> None:
        if self.site not in SEU_SITES:
            raise ConfigurationError(
                f"SEU site must be one of {SEU_SITES}, got {self.site!r}"
            )
        if self.at_touch < 0:
            raise ConfigurationError(f"at_touch must be >= 0, got {self.at_touch}")
        if self.bit is not None and not 0 <= self.bit < 32:
            raise ConfigurationError(f"bit must be in [0, 32), got {self.bit}")
        if self.word is not None and self.word < 0:
            raise ConfigurationError(f"word must be >= 0, got {self.word}")


@dataclass(frozen=True)
class ChannelCorruptFault:
    """Flip a bit in an item flowing through a :class:`~repro.core.channels.Channel`.

    Fires on the ``at_write``-th successful write — counted on the named
    channel, or across all channels when ``channel`` is ``None``.
    """

    at_write: int = 0
    channel: str | None = None
    word: int | None = None
    bit: int | None = None

    def __post_init__(self) -> None:
        if self.at_write < 0:
            raise ConfigurationError(f"at_write must be >= 0, got {self.at_write}")
        if self.bit is not None and not 0 <= self.bit < 32:
            raise ConfigurationError(f"bit must be in [0, 32), got {self.bit}")


@dataclass(frozen=True)
class ChannelStallFault:
    """Stall a channel port for ``duration`` consecutive attempts.

    Models a wedged FIFO: ``try_write`` (or ``try_read`` for
    ``op="read"``) fails for ``duration`` calls starting when the
    channel has completed ``at_op`` successful operations of that kind.
    A burst longer than the consumer's watchdog is *detected* as a
    :class:`~repro.errors.WatchdogTimeoutError`.
    """

    at_op: int = 0
    duration: int = 1
    op: str = "write"
    channel: str | None = None

    def __post_init__(self) -> None:
        if self.op not in ("write", "read"):
            raise ConfigurationError(f"op must be 'write' or 'read', got {self.op!r}")
        if self.at_op < 0:
            raise ConfigurationError(f"at_op must be >= 0, got {self.at_op}")
        if self.duration < 1:
            raise ConfigurationError(f"duration must be >= 1, got {self.duration}")


@dataclass(frozen=True)
class TransferFault:
    """Fail or corrupt a PCIe transfer in the host command queue.

    ``mode="fail"`` makes the ``at_transfer``-th transfer in the given
    direction error out (a driver-level failure); ``mode="corrupt"``
    flips one bit in the payload in flight, to be caught by the
    end-to-end buffer CRC.
    """

    at_transfer: int = 0
    direction: str = "write"
    mode: str = "corrupt"
    word: int | None = None
    bit: int | None = None

    def __post_init__(self) -> None:
        if self.direction not in ("write", "read"):
            raise ConfigurationError(
                f"direction must be 'write' or 'read', got {self.direction!r}"
            )
        if self.mode not in ("corrupt", "fail"):
            raise ConfigurationError(
                f"mode must be 'corrupt' or 'fail', got {self.mode!r}"
            )
        if self.at_transfer < 0:
            raise ConfigurationError(
                f"at_transfer must be >= 0, got {self.at_transfer}"
            )
        if self.bit is not None and not 0 <= self.bit < 32:
            raise ConfigurationError(f"bit must be in [0, 32), got {self.bit}")


@dataclass(frozen=True)
class SensorDropoutFault:
    """Drop every power-sensor sample in ``[start_s, end_s)`` of simulated time."""

    start_s: float = 0.0
    end_s: float = float("inf")

    def __post_init__(self) -> None:
        if self.end_s <= self.start_s:
            raise ConfigurationError(
                f"dropout window [{self.start_s}, {self.end_s}) is empty"
            )


@dataclass(frozen=True)
class FmaxDerateFault:
    """Derate the kernel clock by ``factor`` for one kernel launch.

    Models thermal throttling / a marginal timing path: the
    ``at_kernel``-th kernel-time query sees ``fmax * factor``, so the
    modeled execution runs ``1 / factor`` slower — long enough runs trip
    the host watchdog.
    """

    factor: float = 0.5
    at_kernel: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.factor <= 1.0:
            raise ConfigurationError(
                f"derate factor must be in (0, 1], got {self.factor}"
            )
        if self.at_kernel < 0:
            raise ConfigurationError(f"at_kernel must be >= 0, got {self.at_kernel}")


@dataclass(frozen=True)
class MemoryStallFault:
    """Starve one memory port of the cycle simulator.

    The read (or write) kernel makes no progress for ``duration`` cycles
    starting at cycle ``at_cycle``; the burst shows up in the stall
    counters of :class:`repro.fpga.cycle_sim.CycleReport`, and a burst
    longer than the convergence watchdog raises
    :class:`~repro.errors.WatchdogTimeoutError`.
    """

    at_cycle: int = 0
    duration: int = 1
    port: str = "read"

    def __post_init__(self) -> None:
        if self.port not in ("read", "write"):
            raise ConfigurationError(
                f"port must be 'read' or 'write', got {self.port!r}"
            )
        if self.at_cycle < 0:
            raise ConfigurationError(f"at_cycle must be >= 0, got {self.at_cycle}")
        if self.duration < 1:
            raise ConfigurationError(f"duration must be >= 1, got {self.duration}")


Fault = Union[
    SEUFault,
    ChannelCorruptFault,
    ChannelStallFault,
    TransferFault,
    SensorDropoutFault,
    FmaxDerateFault,
    MemoryStallFault,
]

_FAULT_TYPES = get_args(Fault)


@dataclass(frozen=True)
class FaultPlan:
    """A seeded set of faults to inject into one run.

    ``seed`` drives every position the individual faults leave
    unspecified (which word, which bit), making the whole campaign
    reproducible: two runs armed with equal plans behave identically.
    """

    seed: int = 0
    faults: tuple[Fault, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))
        for f in self.faults:
            if not isinstance(f, _FAULT_TYPES):
                raise ConfigurationError(
                    f"unknown fault type {type(f).__name__}; expected one of "
                    f"{[t.__name__ for t in _FAULT_TYPES]}"
                )

    def __len__(self) -> int:
        return len(self.faults)
