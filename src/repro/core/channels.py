"""On-chip channel (FIFO) substrate.

Intel FPGA SDK for OpenCL connects the read kernel, the autorun compute
PEs and the write kernel through ``channel`` FIFOs (paper Fig. 2).  This
module provides a bounded FIFO with blocking semantics expressed as
explicit success/failure (the cycle simulator uses non-blocking attempts
to model stalls; the functional path uses the blocking helpers).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable

from repro.errors import ConfigurationError, SimulationError
from repro.faults import hooks as fault_hooks


class Channel:
    """Bounded single-producer/single-consumer FIFO.

    ``depth`` mirrors the hardware FIFO depth; ``write`` fails (returns
    False) when full and ``read`` returns ``(False, None)`` when empty —
    exactly the non-blocking channel intrinsics the cycle simulator needs
    to model back-pressure stalls.
    """

    def __init__(self, depth: int, name: str = "channel"):
        if depth < 1:
            raise ConfigurationError(f"channel depth must be >= 1, got {depth}")
        self.depth = depth
        self.name = name
        self._queue: deque[Any] = deque()
        self.writes = 0
        self.reads = 0
        self.write_stalls = 0
        self.read_stalls = 0

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def full(self) -> bool:
        return len(self._queue) >= self.depth

    @property
    def empty(self) -> bool:
        return not self._queue

    def try_write(self, item: Any) -> bool:
        """Non-blocking write; returns False (and counts a stall) if full.

        When a fault plan is armed, a :class:`repro.faults.ChannelStallFault`
        can hold the port (the write fails as if the FIFO were wedged) and
        a :class:`repro.faults.ChannelCorruptFault` can flip a bit in the
        item in flight.
        """
        inj = fault_hooks.ACTIVE
        if inj is not None and inj.stall_channel(self, "write"):
            self.write_stalls += 1
            return False
        if self.full:
            self.write_stalls += 1
            return False
        if inj is not None:
            item = inj.on_channel_write(self, item)
        self._queue.append(item)
        self.writes += 1
        return True

    def try_read(self) -> tuple[bool, Any]:
        """Non-blocking read; returns ``(False, None)`` if empty."""
        inj = fault_hooks.ACTIVE
        if inj is not None and inj.stall_channel(self, "read"):
            self.read_stalls += 1
            return False, None
        if self.empty:
            self.read_stalls += 1
            return False, None
        self.reads += 1
        return True, self._queue.popleft()

    def hop(
        self, item: Any, watchdog: int, error: Callable[[str], Exception]
    ) -> Any:
        """Move ``item`` through the FIFO: write it, then read it back out.

        Each port spins while it is held (back-pressure, or a
        :class:`repro.faults.ChannelStallFault`); spinning past
        ``watchdog`` attempts raises ``error(message)`` as a reported
        detection, so each caller keeps its own typed error.
        """
        def stalled(op: str, spins: int) -> Exception:
            return fault_hooks.report_detection(
                error(
                    f"channel {self.name!r} {op} stalled for {spins} "
                    f"attempts (watchdog {watchdog})"
                )
            )

        spins = 0
        while not self.try_write(item):
            spins += 1
            if spins > watchdog:
                raise stalled("write", spins)
        spins = 0
        while True:
            ok, out = self.try_read()
            if ok:
                return out
            spins += 1
            if spins > watchdog:
                raise stalled("read", spins)

    def write(self, item: Any) -> None:
        """Write that must succeed; raises if the FIFO is full.

        The functional pipeline drains channels eagerly, so a full FIFO
        there indicates a simulator bug rather than back-pressure.
        """
        if not self.try_write(item):
            raise SimulationError(f"channel {self.name!r} overflow (depth {self.depth})")

    def read(self) -> Any:
        """Read that must succeed; raises if the FIFO is empty."""
        ok, item = self.try_read()
        if not ok:
            raise SimulationError(f"channel {self.name!r} underflow")
        return item
