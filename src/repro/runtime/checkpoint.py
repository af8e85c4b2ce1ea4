"""Pass-granular checkpointed recovery for the functional accelerator.

PR 1's recovery model was coarse: any detected fault re-ran the *entire*
operation, so a transient SEU near the end of a long run paid the whole
run again.  This module makes the failure domain a *pass*, not the job:
:meth:`repro.core.FPGAAccelerator.run` accepts a ``checkpoint=`` hook
that snapshots the grid (plus its CRC and the stats cursor) every
``every`` hardware passes.  A :class:`~repro.errors.FaultDetectedError`
or :class:`~repro.errors.WatchdogTimeoutError` raised mid-pass then
rolls the run back to the last good checkpoint and re-executes only the
tail — recovery cost scales with the distance to the last snapshot, not
with the run length.

Design notes
------------

* The checkpoint state lives host-side (a plain array copy plus a
  CRC32).  Restoring verifies the CRC, so a snapshot that rotted after
  being taken is never resurrected: a corrupt *last* checkpoint falls
  back to the pass-0 snapshot, and a corrupt pass-0 snapshot escalates
  the original error.
* Snapshots record the :class:`~repro.core.AcceleratorStats` counter
  cursor; a rollback restores the counters, so the final stats of a
  recovered run equal a fault-free run's — the *extra* work appears
  only in the dedicated ``rollbacks`` / ``replayed_passes`` fields.
* The manager never imports the accelerator (it operates on the stats
  object duck-typed), so :mod:`repro.core.accelerator` can import it
  lazily without a cycle, and the ``checkpoint=None`` path stays
  byte-for-byte the pre-checkpoint code (zero overhead when disarmed —
  gated by ``benchmarks/bench_resilience.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.faults import hooks as fault_hooks
from repro.faults.checksum import crc32_array

#: Stats counters captured in a checkpoint cursor and restored on
#: rollback.  ``rollbacks`` / ``replayed_passes`` / ``checkpoints`` are
#: deliberately absent: they are monotonic recovery accounting.
CURSOR_FIELDS = (
    "passes",
    "steps_executed",
    "cells_written",
    "cells_processed",
    "words_read",
    "words_written",
    "vector_ops",
    "pe_invocations",
)


def merge_counters(total, part) -> None:
    """Add ``part``'s cursor counters and recovery tallies into ``total``.

    Both are :class:`~repro.core.AcceleratorStats`-shaped; the one way
    a caller sums the counters of several runs into one total.
    """
    for name in CURSOR_FIELDS + ("rollbacks", "replayed_passes", "checkpoints"):
        setattr(total, name, getattr(total, name) + getattr(part, name))


@dataclass(frozen=True)
class CheckpointPolicy:
    """Knobs of the pass-granular recovery protocol.

    ``every`` is the snapshot cadence in hardware passes (``k`` in the
    docs: snapshot after every ``k``-th completed pass).  ``max_rollbacks``
    bounds how many rollbacks one run may perform before the detected
    error escalates to the caller (where the host queue's
    :class:`~repro.runtime.host.RetryPolicy` takes over with a whole-run
    retry).
    """

    every: int = 8
    max_rollbacks: int = 8

    def __post_init__(self) -> None:
        if self.every < 1:
            raise ConfigurationError(f"every must be >= 1, got {self.every}")
        if self.max_rollbacks < 0:
            raise ConfigurationError(
                f"max_rollbacks must be >= 0, got {self.max_rollbacks}"
            )


@dataclass(frozen=True)
class Checkpoint:
    """One snapshot: grid copy, its CRC32, and the stats cursor."""

    grid: np.ndarray
    crc: int
    passes: int
    cursor: tuple[int, ...]

    def intact(self) -> bool:
        """Does the snapshot still match the CRC recorded when taken?"""
        return crc32_array(self.grid) == self.crc


class CheckpointManager:
    """Live recovery state of one :meth:`FPGAAccelerator.run` call.

    Holds at most two snapshots — the pass-0 base state and the most
    recent periodic checkpoint — plus the monotonic recovery counters
    that :class:`~repro.core.AcceleratorStats` mirrors
    (``rollbacks``, ``replayed_passes``, ``checkpoints``).
    """

    def __init__(self, policy: CheckpointPolicy):
        self.policy = policy
        self.rollbacks = 0
        self.replayed_passes = 0
        self.checkpoints = 0
        self._base: Checkpoint | None = None
        self._last: Checkpoint | None = None

    # -- snapshotting ---------------------------------------------------- #

    @staticmethod
    def _cursor(stats) -> tuple[int, ...]:
        return tuple(int(getattr(stats, f)) for f in CURSOR_FIELDS)

    def _snapshot(self, grid: np.ndarray, stats) -> Checkpoint:
        data = grid.copy()
        return Checkpoint(
            grid=data,
            crc=crc32_array(data),
            passes=int(stats.passes),
            cursor=self._cursor(stats),
        )

    def seed(self, grid: np.ndarray, stats) -> None:
        """Record the pass-0 state (the rollback target of last resort)."""
        self._base = self._snapshot(grid, stats)

    def maybe_snapshot(self, grid: np.ndarray, stats, remaining: int) -> None:
        """Snapshot after a completed pass when the cadence says so.

        Nothing is stored after the final pass (``remaining == 0``) —
        there is no tail left to protect.
        """
        if remaining <= 0 or stats.passes % self.policy.every:
            return
        self._last = self._snapshot(grid, stats)
        self.checkpoints += 1
        stats.checkpoints = self.checkpoints

    # -- rollback --------------------------------------------------------- #

    def rollback(self, stats, err: BaseException) -> np.ndarray:
        """Restore the last good checkpoint; returns its grid.

        Restores the stats cursor, charges the discarded tail to
        ``replayed_passes`` and re-raises ``err`` when the rollback
        budget is exhausted or no intact snapshot remains.
        """
        if self.rollbacks >= self.policy.max_rollbacks:
            raise err
        ck = self._last
        if ck is not None and not ck.intact():
            fault_hooks.report_detection(
                type(err)("checkpoint snapshot corrupted; falling back to pass 0")
            )
            self._last = ck = None
        if ck is None:
            ck = self._base
            if ck is None or not ck.intact():
                raise err
        self.rollbacks += 1
        stats.rollbacks = self.rollbacks
        discarded = int(stats.passes) - ck.passes
        self.replayed_passes += discarded
        stats.replayed_passes = self.replayed_passes
        for name, value in zip(CURSOR_FIELDS, ck.cursor):
            setattr(stats, name, value)
        fault_hooks.report_recovery(
            f"rolled back to checkpoint at pass {ck.passes} "
            f"(replaying {discarded} completed passes)"
        )
        return ck.grid


def as_manager(checkpoint) -> CheckpointManager:
    """Coerce the ``checkpoint=`` argument into a manager.

    Accepts a :class:`CheckpointManager`, a :class:`CheckpointPolicy`,
    or a plain ``int`` (shorthand for ``CheckpointPolicy(every=k)``).
    """
    if isinstance(checkpoint, CheckpointManager):
        return checkpoint
    if isinstance(checkpoint, CheckpointPolicy):
        return CheckpointManager(checkpoint)
    if isinstance(checkpoint, int) and not isinstance(checkpoint, bool):
        return CheckpointManager(CheckpointPolicy(every=checkpoint))
    raise ConfigurationError(
        "checkpoint must be a CheckpointManager, CheckpointPolicy or int, "
        f"got {type(checkpoint).__name__}"
    )
