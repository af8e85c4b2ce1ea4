"""Deterministic fault injector: interprets an armed :class:`FaultPlan`.

The injector is pure bookkeeping plus bit surgery.  Every hook is called
from an instrumented site in the substrate (shift registers, channels,
the cycle simulator's memory ports, the host command queue, the power
sensor); the injector counts events at each site and fires the plan's
faults at their configured positions.  All randomness (which word, which
bit) is pre-drawn from the plan seed at construction, so firing is
independent of call order and identical across runs.

Faults are one-shot: each spec fires at most once per armed injector
(stall bursts fire once and then run for their configured duration).
That mirrors transient hardware faults — SEUs, glitched transfers —
which is what makes retry a sound recovery strategy.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from repro.errors import FaultDetectedError
from repro.faults import hooks
from repro.faults.plan import (
    ChannelCorruptFault,
    ChannelStallFault,
    FaultPlan,
    FmaxDerateFault,
    MemoryStallFault,
    SensorDropoutFault,
    SEUFault,
    TransferFault,
)


@dataclass(frozen=True)
class FaultRecord:
    """One fired fault: which spec, where, and what it did."""

    fault: object
    description: str


def _flip_float_bit(value: float, bit: int) -> float:
    """Flip one bit of a float32's IEEE-754 representation."""
    (u,) = struct.unpack("<I", struct.pack("<f", float(value)))
    (out,) = struct.unpack("<f", struct.pack("<I", u ^ (1 << bit)))
    return out


def _flip_array_bit(array: np.ndarray, word: int, bit: int) -> int:
    """Flip bit ``bit`` of element ``word % size`` in-place; returns the index.

    Works for any memory layout: ``reshape(-1)`` of a non-contiguous
    array returns a *copy*, so the flip must then go through the original
    array's multi-index (otherwise the strike would silently vanish).
    """
    idx = word % array.size
    flat = array.reshape(-1)
    is_view = flat is array or flat.base is not None
    if is_view and flat.dtype == np.float32 and flat.flags["C_CONTIGUOUS"]:
        flat.view(np.uint32)[idx] ^= np.uint32(1 << bit)
    else:
        coords = np.unravel_index(idx, array.shape)
        array[coords] = _flip_float_bit(float(array[coords]), bit)
    return idx


class FaultInjector:
    """Live state of one armed :class:`FaultPlan`.

    Attributes
    ----------
    fired:
        :class:`FaultRecord` per fault that actually triggered.
    detections:
        Messages appended by detection sites (checksum/CRC/watchdog).
    recoveries:
        Messages appended by retry paths that healed a detection.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self.fired: list[FaultRecord] = []
        self.detections: list[str] = []
        self.recoveries: list[str] = []
        self._done = [False] * len(plan.faults)
        self._stall_left = [0] * len(plan.faults)
        # Pre-draw per-fault randomness so firing order cannot perturb it.
        rng = np.random.default_rng(plan.seed)
        self._rand_word = [int(rng.integers(0, 2**31)) for _ in plan.faults]
        self._rand_bit = [int(rng.integers(0, 32)) for _ in plan.faults]
        # Site/port counters.
        self._touches: dict[str, int] = {}
        self._channel_writes = 0
        self._transfers = {"write": 0, "read": 0}
        self._kernel_queries = 0

    # -- helpers --------------------------------------------------------- #

    def _word_bit(self, i: int, fault) -> tuple[int, int]:
        word = fault.word if fault.word is not None else self._rand_word[i]
        bit = fault.bit if fault.bit is not None else self._rand_bit[i]
        return word, bit

    def _record(self, i: int, fault, description: str) -> None:
        self._done[i] = True
        self.fired.append(FaultRecord(fault=fault, description=description))

    def _each(self, kind):
        for i, fault in enumerate(self.plan.faults):
            if isinstance(fault, kind):
                yield i, fault

    # -- hook: on-chip / external memory (SEU) --------------------------- #

    def touch_sram(self, data: np.ndarray, site: str) -> None:
        """Count a write/update of a memory at ``site``; maybe flip a bit.

        Called with the *live* storage array — a fired SEU mutates it in
        place, exactly like a particle strike between the legitimate
        update (when ECC/checksums were computed) and the next read.
        """
        touch = self._touches.get(site, 0)
        self._touches[site] = touch + 1
        for i, fault in self._each(SEUFault):
            if self._done[i] or fault.site != site or fault.at_touch != touch:
                continue
            word, bit = self._word_bit(i, fault)
            idx = _flip_array_bit(data, word, bit)
            self._record(
                i, fault, f"SEU at {site} touch {touch}: word {idx} bit {bit}"
            )

    # -- hook: channels --------------------------------------------------- #

    def stall_channel(self, channel, op: str) -> bool:
        """True while a stall burst holds this channel port."""
        stalled = False
        ops_done = channel.writes if op == "write" else channel.reads
        for i, fault in self._each(ChannelStallFault):
            if fault.op != op:
                continue
            if fault.channel is not None and fault.channel != channel.name:
                continue
            if self._stall_left[i] > 0:
                self._stall_left[i] -= 1
                stalled = True
            elif not self._done[i] and ops_done == fault.at_op:
                self._record(
                    i,
                    fault,
                    f"stall burst on {channel.name!r} {op} after op {ops_done} "
                    f"for {fault.duration} attempts",
                )
                self._stall_left[i] = fault.duration - 1
                stalled = True
        return stalled

    def on_channel_write(self, channel, item):
        """Maybe corrupt an item about to enter a channel; returns the item."""
        global_idx = self._channel_writes
        self._channel_writes += 1
        for i, fault in self._each(ChannelCorruptFault):
            if self._done[i]:
                continue
            if fault.channel is None:
                if global_idx != fault.at_write:
                    continue
            elif fault.channel != channel.name or channel.writes != fault.at_write:
                continue
            word, bit = self._word_bit(i, fault)
            if isinstance(item, np.ndarray):
                item = item.copy()
                idx = _flip_array_bit(item, word, bit)
                where = f"word {idx}"
            elif isinstance(item, float):
                item = _flip_float_bit(item, bit)
                where = "scalar"
            elif isinstance(item, int):
                item = item ^ (1 << bit)
                where = "scalar"
            else:  # opaque payload: corruption has nothing to flip
                where = "untouched payload"
            self._record(
                i,
                fault,
                f"corrupted {channel.name!r} write {global_idx}: {where} bit {bit}",
            )
        return item

    # -- hook: cycle-simulator memory ports ------------------------------- #

    def memory_stall(self, port: str, cycle: int) -> bool:
        """True if a memory-port stall burst covers this cycle."""
        stalled = False
        for i, fault in self._each(MemoryStallFault):
            if fault.port != port:
                continue
            if fault.at_cycle <= cycle < fault.at_cycle + fault.duration:
                if not self._done[i]:
                    self._record(
                        i,
                        fault,
                        f"memory {port} port stalled cycles "
                        f"[{fault.at_cycle}, {fault.at_cycle + fault.duration})",
                    )
                stalled = True
        return stalled

    # -- hook: PCIe transfers --------------------------------------------- #

    def on_transfer(self, direction: str, data: np.ndarray) -> np.ndarray:
        """Maybe fail or corrupt a host<->device transfer.

        Returns the payload that "arrives" (a corrupted copy if a
        corruption fault fired); raises :class:`FaultDetectedError` for a
        driver-level transfer failure.
        """
        index = self._transfers[direction]
        self._transfers[direction] = index + 1
        for i, fault in self._each(TransferFault):
            if self._done[i] or fault.direction != direction:
                continue
            if fault.at_transfer != index:
                continue
            if fault.mode == "fail":
                self._record(i, fault, f"{direction} transfer {index} failed")
                raise hooks.report_detection(
                    FaultDetectedError(
                        f"PCIe {direction} transfer {index} failed "
                        "(simulated driver error)"
                    )
                )
            word, bit = self._word_bit(i, fault)
            data = data.copy()
            idx = _flip_array_bit(data, word, bit)
            self._record(
                i,
                fault,
                f"corrupted {direction} transfer {index}: word {idx} bit {bit}",
            )
        return data

    # -- hook: power sensor ------------------------------------------------ #

    def drop_sample(self, t_s: float) -> bool:
        """True if the sample at simulated time ``t_s`` is lost."""
        dropped = False
        for i, fault in self._each(SensorDropoutFault):
            if fault.start_s <= t_s < fault.end_s:
                if not self._done[i]:
                    self._record(
                        i,
                        fault,
                        f"sensor dropout [{fault.start_s:.4f}, {fault.end_s:.4f}) s",
                    )
                dropped = True
        return dropped

    # -- hook: clock ------------------------------------------------------- #

    def derate_fmax(self, fmax_mhz: float) -> float:
        """Maybe derate the clock for this kernel-time query."""
        query = self._kernel_queries
        self._kernel_queries += 1
        for i, fault in self._each(FmaxDerateFault):
            if self._done[i] or fault.at_kernel != query:
                continue
            self._record(
                i,
                fault,
                f"fmax derated x{fault.factor} on kernel query {query}",
            )
            return fmax_mhz * fault.factor
        return fmax_mhz
