"""Host-side runtime: buffers, programs, queues, events, power sensor.

The paper's measurement methodology (§IV.B-C):

* kernel execution time only — host<->device transfers excluded;
* board power read every 10 ms through the vendor API and averaged over
  the kernel execution window;
* every experiment repeated five times and averaged;
* performance reported as GCell/s via eq. 3.

This module reproduces that procedure against the simulator: kernels
*numerically execute* through :class:`repro.core.FPGAAccelerator`
(bit-exact), while their *duration* on the simulated clock comes from the
performance-model chain for the target board — so host code written
against this API measures exactly what the paper's host code measured,
including the distinction between transfer time and kernel time.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field

import numpy as np

from repro.core.accelerator import FPGAAccelerator, check_engine
from repro.core.blocking import BlockingConfig
from repro.core.codegen import generate_opencl_kernel
from repro.core.stencil import StencilSpec
from repro.errors import (
    ConfigurationError,
    FaultDetectedError,
    SimulationError,
    WatchdogTimeoutError,
)
from repro.faults import hooks as fault_hooks
from repro.faults.checksum import crc32_array
from repro.fpga.board import NALLATECH_385A, Board
from repro.models.area import AreaModel
from repro.models.fmax import FmaxModel
from repro.models.performance import PerformanceModel
from repro.models.power import fpga_power_watts

#: PCIe gen3 x8 effective host<->device bandwidth (GB/s) used to charge
#: transfer time on the simulated clock (excluded from kernel timing).
PCIE_GBPS = 6.0

#: The paper's power-sampling interval (§IV.B).
POWER_SAMPLE_INTERVAL_S = 0.010

#: Disarmed launch keys a program memoises modeled batch times for; the
#: memo is cleared when full, so a program fed many shapes stays bounded.
BATCH_TIME_MEMO = 64


class Buffer:
    """A device-resident buffer with CRC-tracked contents.

    ``write`` stores a copy of the payload, so the buffer never aliases
    the caller's array; ``adopt`` takes over an array without copying —
    the kernel's output, or a disarmed write's host grid, which only the
    kernel reads.  The CRC32 — the ECC the
    memory controller keeps alongside the data — is recorded lazily, on
    the first ``crc`` / ``verify`` / ``view`` after the contents change,
    so a run that never checks never pays for it.

    ``view`` hands out the live storage for callers that model
    hardware-level corruption (the fault injector) — the only path that
    mutates stored data in place.  It records the CRC *before* handing
    the storage out, so ``verify`` (a DRAM scrub) catches whatever is
    done through it.  Storage a host mirror holds (:meth:`share`) is
    copied on the next ``view``, so the mirror — or the host array a
    disarmed write adopted, or a disarmed read handed out — keeps its
    bytes.  ``data`` is for reading only.
    """

    def __init__(self, nbytes: int):
        if nbytes <= 0:
            raise ConfigurationError(f"buffer size must be positive, got {nbytes}")
        self.nbytes = nbytes
        self._data: np.ndarray | None = None
        self._crc: int | None = None
        self._shared = False

    @property
    def data(self) -> np.ndarray:
        if self._data is None:
            raise SimulationError("reading an unwritten device buffer")
        return self._data

    @property
    def crc(self) -> int | None:
        """CRC32 of the contents as last stored (``None`` if unwritten)."""
        if self._crc is None and self._data is not None:
            self._crc = crc32_array(self._data)
        return self._crc

    def write(self, array: np.ndarray) -> None:
        """Store a float32 copy of ``array``."""
        self.adopt(np.array(array, dtype=np.float32, order="C"))

    def adopt(self, array: np.ndarray) -> None:
        """Make ``array`` (C-contiguous float32) the contents, uncopied.

        The buffer never writes the array; the caller must not write it
        while the buffer holds it.
        """
        if array.nbytes != self.nbytes:
            raise ConfigurationError(
                f"buffer is {self.nbytes} B but payload is {array.nbytes} B"
            )
        self._data = array
        self._crc = None
        self._shared = False

    def share(self) -> np.ndarray:
        """The storage, for a holder outside the buffer to keep (the
        host mirror, a disarmed read's caller): the next ``view`` copies
        it first, so nothing written through the view reaches it."""
        self._shared = True
        return self.data

    def invalidate(self) -> None:
        """Discard contents and CRC (e.g. after an aborted transfer)."""
        self._data = None
        self._crc = None
        self._shared = False

    def view(self) -> np.ndarray:
        """Live storage array — mutations bypass the CRC tracking.

        Exists for hardware-level corruption modeling (DRAM SEUs); the
        host runtime itself never writes through it.  The CRC of the
        contents is recorded first, so a later :meth:`verify` detects
        any mutation.
        """
        data = self.data
        if self._crc is None:
            self._crc = crc32_array(data)  # before the storage escapes
        if self._shared:
            self._data = data = data.copy()
            self._shared = False
        return data

    def verify(self) -> bool:
        """DRAM scrub: does the stored CRC still match the contents?"""
        if self._data is None:
            return False
        return crc32_array(self._data) == self.crc


@dataclass(frozen=True)
class Event:
    """Completion event with simulated timestamps (seconds).

    ``attempts`` and ``retry_wait_s`` surface the retry path's overhead:
    an event with ``attempts > 1`` spans every re-attempt plus the
    exponential-backoff waits, so kernel-vs-transfer accounting sees
    exactly what resilience cost.  ``rollbacks``, ``replayed_passes``
    and ``checkpoint_overhead_s`` do the same for pass-granular
    checkpointed recovery: a kernel event that healed a fault in-place
    reports how many passes were replayed and what the periodic
    snapshots cost on the clock.

    An operation that exhausts its retries still records a terminal
    ``*-failed`` event (spanning every attempt plus the backoff waits)
    before raising, so the clock, the event log and the byte counters
    always agree.
    """

    name: str
    start_s: float
    end_s: float
    attempts: int = 1
    retry_wait_s: float = 0.0
    rollbacks: int = 0
    replayed_passes: int = 0
    checkpoint_overhead_s: float = 0.0

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential-backoff retry for transient (detected) faults.

    ``max_retries`` counts *re*-attempts: an operation runs at most
    ``max_retries + 1`` times.  The ``n``-th retry waits
    ``backoff_s * multiplier ** (n - 1)`` seconds of simulated time.
    """

    max_retries: int = 2
    backoff_s: float = 100e-6
    multiplier: float = 2.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.backoff_s < 0:
            raise ConfigurationError(f"backoff_s must be >= 0, got {self.backoff_s}")
        if self.multiplier < 1.0:
            raise ConfigurationError(
                f"multiplier must be >= 1, got {self.multiplier}"
            )

    def backoff_for(self, retry: int) -> float:
        """Backoff before the ``retry``-th re-attempt (1-based)."""
        return self.backoff_s * self.multiplier ** (retry - 1)


class PowerSensor:
    """The board's power sensor, sampled on the simulated clock.

    Instantaneous power is the fitted power model plus a small
    deterministic ripple (boards report noisy sensor values; the paper
    averages them), so averaging over samples is meaningful.
    """

    def __init__(self, base_watts: float, ripple_watts: float = 1.5):
        if base_watts <= 0:
            raise ConfigurationError("base power must be positive")
        self.base_watts = base_watts
        self.ripple_watts = ripple_watts

    def sample(self, t_s: float) -> float:
        """Instantaneous power at simulated time ``t_s``."""
        return self.base_watts + self.ripple_watts * math.sin(2 * math.pi * 7.3 * t_s)

    def average_over(self, start_s: float, end_s: float) -> float:
        """Average of 10 ms samples across a window (paper §IV.B).

        Any non-empty window yields at least the sample at ``start_s``
        (sub-interval windows read the sensor exactly once).  While a
        fault plan is armed, a :class:`repro.faults.SensorDropoutFault`
        can lose individual reads — the average is then taken over the
        surviving samples, and a window with *no* surviving samples
        raises :class:`~repro.errors.FaultDetectedError`.
        """
        if end_s <= start_s:
            raise ConfigurationError("empty sampling window")
        inj = fault_hooks.ACTIVE
        samples = []
        dropped = 0
        # Sample times are indexed (start + i * interval), not accumulated
        # (t += interval): float accumulation drifts by one ulp per step,
        # which over multi-second windows walks the last sample across the
        # end boundary — an off-by-one sample count vs the paper's 10 ms
        # grid.
        i = 0
        while True:
            t = start_s + i * POWER_SAMPLE_INTERVAL_S
            if i > 0 and t >= end_s:
                break  # i == 0 always samples: end_s > start_s
            if inj is not None and inj.drop_sample(t):
                dropped += 1
            else:
                samples.append(self.sample(t))
            i += 1
        if not samples:
            raise fault_hooks.report_detection(
                FaultDetectedError(
                    f"power sensor returned no samples over "
                    f"[{start_s:.4f}, {end_s:.4f}) s ({dropped} dropped)"
                )
            )
        return sum(samples) / len(samples)


class StencilProgram:
    """A 'compiled' stencil kernel: generated source + execution engines.

    Building mirrors the offline OpenCL compile: it runs the area model
    (raising :class:`ConfigurationError` if the design does not fit the
    device), the fmax model, and generates the kernel source.  ``engine``
    — one of :data:`~repro.core.accelerator.ENGINES` — is forwarded to
    :class:`~repro.core.FPGAAccelerator` (ladder ``auto -> native ->
    numpy``); the wrapped accelerator — and its persistent worker pool,
    one worker per CPU this process may run on — lives for the
    program's lifetime, so every pass of an executed job runs on all of
    those CPUs and schedulers re-dispatching many small jobs through
    one program never rebuild pools.
    :attr:`resolved_engine` reports the tier actually selected.
    """

    def __init__(
        self,
        spec: StencilSpec,
        config: BlockingConfig,
        board: Board = NALLATECH_385A,
        engine: str = "auto",
    ):
        self.spec = spec
        self.config = config
        self.board = board
        check_engine(engine)
        self.engine = engine
        self.area = AreaModel(board.device).report(spec, config)
        if not self.area.fits:
            raise ConfigurationError(
                f"design does not fit {board.device.name}: "
                f"DSP {self.area.dsp_fraction:.0%}, "
                f"BRAM {self.area.bram_bits_fraction:.0%}"
            )
        self.fmax_mhz = FmaxModel().fmax_mhz(config.dims, config.radius)
        self.source = generate_opencl_kernel(spec, config)
        self._engine = FPGAAccelerator(spec, config, engine=engine)
        self._model = PerformanceModel(board)
        self._batch_times: dict[tuple, float] = {}

    @property
    def resolved_engine(self) -> str:
        """Engine tier the accelerator actually executes disarmed passes on."""
        return self._engine.resolved_engine

    @property
    def closed(self) -> bool:
        """True once :meth:`close` released the execution resources."""
        return self._engine.closed

    def close(self) -> None:
        """Release the wrapped accelerator's worker pools (idempotent).

        A closed program is terminal: :meth:`execute` raises a typed
        :class:`ConfigurationError`.  Long-running owners (the
        scheduler's program cache, the serving layer's artifact cache)
        call this on eviction so compiled-lib worker pools never
        accumulate across tenants.
        """
        self._engine.close()

    def kernel_time_s(self, grid_shape: tuple[int, ...], iterations: int) -> float:
        """Modeled (measured-equivalent) kernel time for a workload.

        While a fault plan is armed, a :class:`repro.faults.FmaxDerateFault`
        can derate the clock for one launch (thermal throttling); the
        host watchdog in :meth:`CommandQueue.enqueue_kernel` is what
        notices the resulting slowdown.
        """
        fmax = self.fmax_mhz
        inj = fault_hooks.ACTIVE
        if inj is not None:
            fmax = inj.derate_fmax(fmax)
        return self._model.predict_measured(
            self.spec, self.config, grid_shape, iterations, fmax_mhz=fmax
        ).time_s

    def execute(
        self, grid: np.ndarray, iterations: int, checkpoint=None, out=None
    ):
        """Numerically execute the kernel (functional simulator).

        ``checkpoint`` and ``out`` are forwarded to
        :meth:`FPGAAccelerator.run` (pass-granular recovery, ``None``
        keeping the zero-overhead path; the array the result is written
        into).
        """
        return self._engine.run(
            grid, iterations, checkpoint=checkpoint, out=out
        )

    def batch_kernel_time_s(
        self, grid_shape: tuple[int, ...], iterations: int, n_grids: int
    ) -> float:
        """Modeled time of one *batched* launch over ``n_grids`` grids.

        Per-grid work scales linearly; the fixed launch overhead
        (:data:`~repro.models.performance.LAUNCH_OVERHEAD_S`) is paid
        once per batch — the amortization the batch engine buys.  Fmax
        derating while a fault plan is armed applies as in
        :meth:`kernel_time_s`, so an armed call always re-evaluates the
        model; a disarmed one is memoised per ``(grid_shape,
        iterations, n_grids)`` (the model's other inputs are the
        program's own), at most :data:`BATCH_TIME_MEMO` keys.
        """
        inj = fault_hooks.ACTIVE
        if inj is not None:
            return self._model.predict_batch(
                self.spec, self.config, grid_shape, iterations, n_grids,
                fmax_mhz=inj.derate_fmax(self.fmax_mhz),
            ).time_s
        key = (tuple(grid_shape), iterations, n_grids)
        time_s = self._batch_times.get(key)
        if time_s is None:
            if len(self._batch_times) >= BATCH_TIME_MEMO:
                self._batch_times.clear()
            time_s = self._batch_times[key] = self._model.predict_batch(
                self.spec, self.config, grid_shape, iterations, n_grids,
                fmax_mhz=self.fmax_mhz,
            ).time_s
        return time_s

    def execute_batch(self, grids, iterations: int, checkpoint=None, out=None):
        """Numerically execute one batched launch over many grids.

        Forwards to :meth:`FPGAAccelerator.run_batch`: ``grids`` is a
        sequence of grids or an already-stacked ``(n, *grid_shape)``
        slab (used without a copy), ``out`` the slab the outputs are
        written into.  Returns its
        :class:`~repro.core.batch.BatchResult` (per-grid outputs and
        per-grid typed errors — one grid's fault fails only that entry).
        """
        return self._engine.run_batch(
            grids, iterations, checkpoint=checkpoint, out=out
        )

    def power_watts(self) -> float:
        """Modeled board power while this kernel runs."""
        return fpga_power_watts(
            self.fmax_mhz,
            self.area.dsp_fraction,
            self.area.m20k_fraction,
            self.area.logic_fraction,
        )


class HostDevice:
    """The board as seen by the host."""

    def __init__(self, board: Board = NALLATECH_385A):
        self.board = board

    def sensor_for(self, program: StencilProgram) -> PowerSensor:
        return PowerSensor(program.power_watts())


class CommandQueue:
    """In-order command queue with a simulated clock.

    Every operation runs under ``retry_policy``: a detected transient
    fault (CRC mismatch, failed transfer, checksum violation inside the
    kernel, watchdog expiry) triggers exponential-backoff re-attempts,
    and the completion :class:`Event` reports ``attempts`` and
    ``retry_wait_s`` so the overhead stays visible in the accounting.
    """

    def __init__(
        self,
        device: HostDevice | None = None,
        retry_policy: RetryPolicy | None = None,
    ):
        self.device = device if device is not None else HostDevice()
        self.retry_policy = retry_policy if retry_policy is not None else RetryPolicy()
        self.clock_s = 0.0
        self.events: list[Event] = []
        self.transfer_bytes = 0
        # Keyed by the Buffer object itself through weak references: a
        # garbage-collected buffer drops its mirror with it.  (An id()
        # key outlives the buffer, and CPython reuses ids — a stale
        # mirror would then resurrect the *wrong* data on scrub
        # recovery.)
        self._host_mirror: weakref.WeakKeyDictionary[Buffer, np.ndarray] = (
            weakref.WeakKeyDictionary()
        )

    def _record(
        self,
        name: str,
        duration_s: float,
        attempts: int = 1,
        retry_wait_s: float = 0.0,
        rollbacks: int = 0,
        replayed_passes: int = 0,
        checkpoint_overhead_s: float = 0.0,
    ) -> Event:
        event = Event(
            name,
            self.clock_s,
            self.clock_s + duration_s,
            attempts=attempts,
            retry_wait_s=retry_wait_s,
            rollbacks=rollbacks,
            replayed_passes=replayed_passes,
            checkpoint_overhead_s=checkpoint_overhead_s,
        )
        self.clock_s = event.end_s
        self.events.append(event)
        return event

    def _transfer_time_s(self, nbytes: int) -> float:
        return nbytes / (PCIE_GBPS * 1e9)

    def enqueue_write_buffer(self, buffer: Buffer, host_array: np.ndarray) -> Event:
        """Host -> device transfer (charged to the clock, not the kernel).

        ``host_array`` is an array, or a sequence of same-shape arrays
        stacked on a new leading axis (a batch slab).  Disarmed, no
        fault can enter the transfer, so nothing is checked, and the
        buffer adopts a C-contiguous float32 array uncopied — a one-grid
        sequence as a ``[None]`` view of its grid — because the kernel
        only reads its source; anything else (several grids, another
        dtype, a strided view) is stacked or converted by one copy.  The
        caller must not write ``host_array`` until the work that reads
        the buffer has finished.  While a fault plan is armed the write
        always copies: the host CRCs the payload before sending, and
        after the (possibly faulty) transfer the device-side CRC must
        match or the transfer is retried.  Either way the queue mirrors
        the written contents — a reference to the buffer's own storage,
        which :meth:`Buffer.view` copies before anything can corrupt it,
        so a plan armed after the write never reaches the caller's
        array — and a later DRAM scrub failure can re-upload them.
        """
        inj = fault_hooks.ACTIVE
        grid = (
            host_array[0]
            if isinstance(host_array, (tuple, list)) and len(host_array) == 1
            else host_array
        )
        if (
            inj is None
            and isinstance(grid, np.ndarray)
            and grid.dtype == np.float32
            and grid.flags.c_contiguous
        ):
            data = grid if grid is host_array else grid[None]
        else:
            data = np.array(host_array, dtype=np.float32, order="C")
        if data.nbytes != buffer.nbytes:
            raise ConfigurationError(
                f"buffer is {buffer.nbytes} B but host array is {data.nbytes} B"
            )
        golden = crc32_array(data) if inj is not None else None
        attempts = 0
        wait_s = 0.0
        while True:
            attempts += 1
            self.transfer_bytes += data.nbytes
            if inj is None:
                buffer.adopt(data)
                break
            try:
                buffer.write(inj.on_transfer("write", data))
                if buffer.crc != golden:
                    buffer.invalidate()
                    raise fault_hooks.report_detection(
                        FaultDetectedError(
                            "write-transfer CRC mismatch: payload corrupted "
                            "in flight"
                        )
                    )
                break
            except FaultDetectedError:
                if attempts > self.retry_policy.max_retries:
                    # Terminal failure: the attempts moved bytes and time
                    # passed — pin both to the clock and the event log so
                    # they agree with transfer_bytes, then propagate.
                    self._record(
                        "write-buffer-failed",
                        attempts * self._transfer_time_s(data.nbytes) + wait_s,
                        attempts=attempts,
                        retry_wait_s=wait_s,
                    )
                    raise
                wait_s += self.retry_policy.backoff_for(attempts)
        if attempts > 1:
            fault_hooks.report_recovery(
                f"write-buffer recovered after {attempts} attempts"
            )
        self._host_mirror[buffer] = buffer.share()
        return self._record(
            "write-buffer",
            attempts * self._transfer_time_s(data.nbytes) + wait_s,
            attempts=attempts,
            retry_wait_s=wait_s,
        )

    def enqueue_read_buffer(self, buffer: Buffer) -> tuple[np.ndarray, Event]:
        """Device -> host transfer: the returned array is the caller's.

        Disarmed, nothing can corrupt the transfer, so nothing is
        checked and nothing is copied: the caller gets the buffer's own
        storage — after a launch, the launch's output slab — and the
        buffer keeps it as its contents, shared like a mapped buffer.
        No launch writes that array again (each writes fresh storage)
        and :meth:`Buffer.view` copies it before a modeled fault can
        touch it; a write through the returned array does change what
        the buffer reads.  While a fault plan is armed the read is a
        copy, verified against the device-side CRC, and a corrupted
        transfer is retried.
        """
        inj = fault_hooks.ACTIVE
        golden = buffer.crc if inj is not None else None
        attempts = 0
        wait_s = 0.0
        while True:
            attempts += 1
            self.transfer_bytes += buffer.data.nbytes
            if inj is None:
                data = buffer.share()
                break
            try:
                data = inj.on_transfer("read", buffer.data.copy())
                if crc32_array(data) != golden:
                    raise fault_hooks.report_detection(
                        FaultDetectedError(
                            "read-transfer CRC mismatch: payload "
                            "corrupted in flight"
                        )
                    )
                break
            except FaultDetectedError:
                if attempts > self.retry_policy.max_retries:
                    self._record(
                        "read-buffer-failed",
                        attempts * self._transfer_time_s(buffer.data.nbytes)
                        + wait_s,
                        attempts=attempts,
                        retry_wait_s=wait_s,
                    )
                    raise
                wait_s += self.retry_policy.backoff_for(attempts)
        if attempts > 1:
            fault_hooks.report_recovery(
                f"read-buffer recovered after {attempts} attempts"
            )
        event = self._record(
            "read-buffer",
            attempts * self._transfer_time_s(data.nbytes) + wait_s,
            attempts=attempts,
            retry_wait_s=wait_s,
        )
        return data, event

    def _scrub(self, buffer: Buffer) -> None:
        """Verify a buffer's CRC; re-upload from the host mirror if stale."""
        if buffer.verify():
            return
        fault_hooks.report_detection(
            FaultDetectedError("DRAM scrub failed: device buffer corrupted")
        )
        mirror = self._host_mirror.get(buffer)
        if mirror is None:
            raise FaultDetectedError(
                "DRAM scrub failed and no host mirror exists to re-upload"
            )
        buffer.write(mirror)
        self.transfer_bytes += mirror.nbytes
        self._record("reupload-buffer", self._transfer_time_s(mirror.nbytes))
        fault_hooks.report_recovery("device buffer re-uploaded after scrub failure")

    def enqueue_kernel(
        self,
        program: StencilProgram,
        src: Buffer,
        dst: Buffer,
        iterations: int,
        watchdog_s: float | None = None,
        checkpoint=None,
    ) -> Event:
        """Run the stencil kernel over one grid: real numerics, modeled
        duration.

        The clock is charged kernel time only
        (:meth:`StencilProgram.kernel_time_s`, no launch overhead) —
        the paper's measurement (§IV.B-C), which
        :func:`benchmark_kernel` repeats.  Everything else is the
        launch loop of :meth:`enqueue_batch_kernel` over a one-grid
        slab: a detected fault in the grid is a launch fault, retried
        under the queue's policy.  Returns the completion
        :class:`Event`.
        """
        event, _ = self._launch(
            program, src, dst, iterations, None, watchdog_s, checkpoint
        )
        return event

    def enqueue_batch_kernel(
        self,
        program: StencilProgram,
        src: Buffer,
        dst: Buffer,
        iterations: int,
        n_grids: int,
        watchdog_s: float | None = None,
        checkpoint=None,
    ):
        """Run one kernel launch over a slab of ``n_grids`` grids.

        ``src`` holds the slab — ``n_grids`` same-shape grids stacked on
        axis 0 — and is transferred, scrubbed and CRC-verified as one
        buffer (the transfer amortization is real: one write, one read
        per launch).  Duration on the simulated clock comes from
        :meth:`StencilProgram.batch_kernel_time_s` (launch overhead paid
        once).  Returns ``(event, batch)`` where ``batch`` is the
        :class:`~repro.core.batch.BatchResult`.

        Before each attempt the source buffer is scrubbed (CRC check,
        re-uploading from the host mirror on mismatch).  Failure
        domains: *launch* faults (DRAM scrub, a modeled duration beyond
        ``watchdog_s``, or a launch in which no grid completed) retry
        the whole launch under the queue's policy; failed attempts
        still charge their time, capped at the watchdog, and retry
        exhaustion records a terminal ``*-kernel-failed`` event (the
        burned time stays on the clock) before raising.  *Per-grid*
        faults in a launch where some grid completed (an SEU detected
        inside one grid of an armed slab) are captured in
        ``batch.errors`` and never retried here — one grid's fault
        fails only that entry.  Failed entries keep their input state
        in ``dst``'s slab; callers must consult ``batch.errors`` before
        trusting a grid's output.

        ``checkpoint`` (a :class:`~repro.runtime.checkpoint
        .CheckpointPolicy` or int ``k``) arms pass-granular recovery
        *inside* the kernel: mid-run faults roll back to the last
        snapshot and replay only the tail, so the queue-level retry only
        sees faults the rollback budget could not absorb.  The clock is
        charged for the replayed passes (at the modeled per-pass time)
        plus the snapshot traffic (slab bytes / PCIe bandwidth per
        checkpoint), surfaced on the event as ``rollbacks`` /
        ``replayed_passes`` / ``checkpoint_overhead_s``.  Each queue
        attempt gets a fresh rollback budget.  ``checkpoint=None`` keeps
        the exact pre-checkpoint accounting.

        The device slab itself is the kernel's input; the launch writes
        its output slab straight into fresh storage that ``dst`` then
        adopts (no result copy, no CRC); ``batch.outputs`` are views of
        it.  ``dst`` is left untouched when every attempt fails.
        """
        if n_grids < 1:
            raise ConfigurationError(f"n_grids must be >= 1, got {n_grids}")
        return self._launch(
            program, src, dst, iterations, n_grids, watchdog_s, checkpoint
        )

    def _launch(
        self,
        program: StencilProgram,
        src: Buffer,
        dst: Buffer,
        iterations: int,
        n_grids: int | None,
        watchdog_s: float | None,
        checkpoint,
    ):
        """The scrub/watchdog/retry/charge loop of every kernel launch.

        ``n_grids=None`` is :meth:`enqueue_kernel`: ``src`` holds one
        grid, run as a ``[None]`` slab view and charged kernel time
        only.
        """
        if watchdog_s is not None and watchdog_s <= 0:
            raise ConfigurationError(f"watchdog_s must be > 0, got {watchdog_s}")
        name = "stencil-kernel" if n_grids is None else "batch-kernel"

        def modeled_s(data: np.ndarray) -> float:
            if n_grids is None:
                return program.kernel_time_s(data.shape, iterations)
            return program.batch_kernel_time_s(data.shape[1:], iterations, n_grids)

        inj = fault_hooks.ACTIVE
        attempts = 0
        wait_s = 0.0
        charged_s = 0.0
        while True:
            attempts += 1
            try:
                if inj is not None:
                    inj.touch_sram(src.view(), site="dram")
                    self._scrub(src)
                data = src.data
                slab = data[None] if n_grids is None else data
                if n_grids is not None and len(slab) != n_grids:
                    raise ConfigurationError(
                        f"slab has {len(slab)} grids, expected {n_grids}"
                    )
                duration = modeled_s(data)
                if watchdog_s is not None and duration > watchdog_s:
                    charged_s += watchdog_s  # killed at the deadline
                    raise fault_hooks.report_detection(
                        WatchdogTimeoutError(
                            f"{name} exceeded watchdog: modeled "
                            f"{duration:.4f} s > {watchdog_s:.4f} s"
                        )
                    )
                out = np.empty_like(slab)
                batch = program.execute_batch(
                    slab, iterations, checkpoint=checkpoint, out=out
                )
                if batch.n_failed == len(slab):
                    raise batch.errors[0]  # no grid completed: a launch fault
                dst.adopt(out if n_grids is not None else out[0])
                break
            except FaultDetectedError as err:
                if not isinstance(err, WatchdogTimeoutError):
                    # detection mid-run: the attempt burned kernel time
                    charged_s += modeled_s(src.data)
                if attempts > self.retry_policy.max_retries:
                    self._record(
                        f"{name}-failed",
                        charged_s + wait_s,
                        attempts=attempts,
                        retry_wait_s=wait_s,
                    )
                    raise
                wait_s += self.retry_policy.backoff_for(attempts)
        if attempts > 1:
            fault_hooks.report_recovery(
                f"{name} recovered after {attempts} attempts"
            )
        stats = batch.stats
        replay_s = ckpt_s = 0.0
        if checkpoint is not None:
            # Tail replay at the modeled per-pass time, snapshots at PCIe
            # cost: recovery charges scale with the tail, not the run.
            per_pass_s = duration / max(1, stats.passes)
            replay_s = stats.replayed_passes * per_pass_s
            ckpt_s = stats.checkpoints * self._transfer_time_s(data.nbytes)
        event = self._record(
            name,
            charged_s + wait_s + duration + replay_s + ckpt_s,
            attempts=attempts,
            retry_wait_s=wait_s,
            rollbacks=stats.rollbacks if checkpoint is not None else 0,
            replayed_passes=(
                stats.replayed_passes if checkpoint is not None else 0
            ),
            checkpoint_overhead_s=ckpt_s,
        )
        return event, batch

    def finish(self) -> float:
        """Drain the queue; returns the simulated clock."""
        return self.clock_s


@dataclass
class KernelBenchmark:
    """Result of the paper's five-repeat measurement procedure."""

    mean_kernel_s: float
    gcell_s: float
    gflop_s: float
    mean_power_w: float
    repeats: int
    result: np.ndarray = field(repr=False)

    @property
    def gflops_per_watt(self) -> float:
        return self.gflop_s / self.mean_power_w


def benchmark_kernel(
    program: StencilProgram,
    grid: np.ndarray,
    iterations: int,
    repeats: int = 5,
    retry_policy: RetryPolicy | None = None,
    watchdog_s: float | None = None,
    checkpoint=None,
) -> KernelBenchmark:
    """The paper's measurement loop: five repeats, kernel-only timing,
    10 ms power sampling averaged over each kernel window (§IV.B-C).

    Resilience: every queue operation retries detected transient faults
    under ``retry_policy``; a repeat whose power window loses all its
    sensor samples is re-measured (the re-run lands on a later simulated
    window, past the dropout).
    """
    if repeats < 1:
        raise ConfigurationError(f"repeats must be >= 1, got {repeats}")
    queue = CommandQueue(HostDevice(program.board), retry_policy=retry_policy)
    sensor = queue.device.sensor_for(program)
    src = Buffer(grid.size * np.dtype(np.float32).itemsize)
    dst = Buffer(src.nbytes)
    queue.enqueue_write_buffer(src, grid)

    kernel_times = []
    powers = []
    for _ in range(repeats):
        attempts = 0
        while True:
            attempts += 1
            event = queue.enqueue_kernel(
                program, src, dst, iterations, watchdog_s=watchdog_s,
                checkpoint=checkpoint,
            )
            try:
                power = sensor.average_over(event.start_s, event.end_s)
                break
            except FaultDetectedError:
                if attempts > queue.retry_policy.max_retries:
                    raise
        if attempts > 1:
            fault_hooks.report_recovery(
                f"power measurement recovered after {attempts} attempts"
            )
        kernel_times.append(event.duration_s)
        powers.append(power)
    out, _ = queue.enqueue_read_buffer(dst)

    mean_t = sum(kernel_times) / repeats
    cells = int(np.prod(grid.shape))
    gcell = cells * iterations / mean_t / 1e9
    return KernelBenchmark(
        mean_kernel_s=mean_t,
        gcell_s=gcell,
        gflop_s=gcell * program.spec.flops_per_cell,
        mean_power_w=sum(powers) / repeats,
        repeats=repeats,
        result=out,
    )
