"""Functional simulator of the paper's FPGA stencil accelerator.

The simulated design (paper Fig. 2) is::

    DDR --> [Read kernel] --> PE_0 --> PE_1 --> ... --> PE_{partime-1}
                                 --> [Write kernel] --> DDR

* The **read kernel** streams each overlapped spatial block (compute region
  plus ``partime * rad`` halo per blocked side, clamped at grid borders)
  from external memory, ``parvec`` cells per cycle.
* Each **PE** advances the stream by one time step, buffering ``2 * rad``
  rows (2D) or planes (3D) of the block in an on-chip shift register.
* The **write kernel** stores the compute region of the final PE's output.
* One *pass* through the chain advances the whole grid by ``partime``
  steps; ``ceil(iterations / partime)`` passes run back to back.

This simulator reproduces those semantics exactly — including the clamp
boundary condition and the paper's fixed floating-point accumulation order
— so its float32 output is bit-identical to :func:`repro.core.reference.
reference_run` (a tested invariant).  Alongside the numerics it counts the
architectural quantities (cells processed incl. redundant halo work, memory
words moved, vector operations, shift-register footprint) that feed the
performance model.

Execution is plan-driven: a :class:`repro.core.plan.PassPlan` (cached per
``(config, grid_shape, boundary)``) carries the per-block gather segments,
clamp-duplicate counts, per-stage shrink windows and write slices, so a
pass is pure execution.  With a C compiler, a whole pass runs in one call
into the generated native pass driver (:mod:`repro.core.native`), whose
persistent worker pool claims blocks off one atomic counter; without one,
a serial NumPy pass does slice copies into a preallocated stream-padded
scratch buffer and in-place stencil accumulation.  While a fault plan is
armed the simulator instead runs the hardened per-block path, hopping
each block through real channels with per-stage checksums.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.batch import BatchPlan, BatchResult
from repro.core.blocking import BlockingConfig
from repro.core.channels import Channel
from repro.core.native import (
    SCALAR_FLAGS,
    native_driver,
    usable_cpus,
    vector_width_for,
)
from repro.core.pe import (
    fill_stream_halo,
    pe_step,
    pe_step_padded,
    refresh_border_duplicates,
    stencil_terms,
)
from repro.core.plan import BlockPlan, DriverTables, PassPlan, get_pass_plan
from repro.core.shift_register import shift_register_words
from repro.core.stencil import StencilSpec
from repro.errors import ConfigurationError, FaultDetectedError, WatchdogTimeoutError
from repro.faults import hooks as fault_hooks
from repro.faults.checksum import crc32_array

#: The execution engines every layer accepts, most capable first.
#: ``"native"`` is the generated pass driver; ``"numpy"`` — the serial
#: NumPy pass, which needs no compiler — is the floor every degrade path
#: ends on; ``"auto"`` runs ``"native"`` when the driver builds and
#: ``"numpy"`` otherwise.
ENGINES: tuple[str, ...] = ("auto", "native", "numpy")

#: The engine no degrade path goes below.
FLOOR_ENGINE = "numpy"

#: :class:`FPGAAccelerator` also accepts ``"native-scalar"``: the same
#: driver source at ``VEC=1`` built with vectorization off — the SIMD
#: benchmarking baseline, which nothing selects on its own.
ACCELERATOR_ENGINES: tuple[str, ...] = ENGINES + ("native-scalar",)


def check_engine(engine: str, allowed: tuple[str, ...] = ENGINES) -> None:
    """Raise :class:`ConfigurationError` unless ``engine`` is in ``allowed``."""
    if engine not in allowed:
        raise ConfigurationError(
            f"engine must be one of {', '.join(map(repr, allowed))}, "
            f"got {engine!r}",
            param="engine",
            value=engine,
            constraint=f"engine in {allowed}",
        )


@dataclass
class AcceleratorStats:
    """Architectural counters collected by :class:`FPGAAccelerator`.

    All counts are totals over the whole run unless suffixed ``_per_pass``.
    ``cells_processed`` uses the hardware's fixed block footprint (each
    block occupies ``bsize`` pipeline slots per blocked axis regardless of
    clamping), which is what the performance model needs.

    **Partial final pass.** When ``iterations % partime != 0`` the last
    pass advances only the remaining time steps, but the hardware still
    runs the *full* pipeline: all ``partime`` PEs are instantiated and the
    trailing ones forward data unchanged.  The counters follow the
    hardware: ``pe_invocations``, ``cells_processed``, ``words_read`` /
    ``words_written`` and ``vector_ops`` charge every pass at its full
    fixed footprint (``blocks x partime`` PE slots), while
    ``steps_executed`` counts the time steps actually advanced.
    """

    passes: int = 0
    steps_executed: int = 0
    blocks_per_pass: int = 0
    cells_written: int = 0
    cells_processed: int = 0
    words_read: int = 0
    words_written: int = 0
    vector_ops: int = 0
    shift_register_words_per_pe: int = 0
    pe_invocations: int = 0
    grid_shape: tuple[int, ...] = field(default_factory=tuple)
    #: CRC32 of the final output; only computed when a fault plan is armed
    #: or the caller supplied a golden CRC (the fault-free path stays
    #: untouched).
    output_crc32: int | None = None
    #: Pass-granular recovery accounting (``checkpoint=`` hook of
    #: :meth:`FPGAAccelerator.run`).  ``rollbacks`` counts restores from
    #: a checkpoint, ``replayed_passes`` the completed passes that were
    #: discarded and re-executed (the tail cost of each rollback), and
    #: ``checkpoints`` the periodic snapshots taken.  All three stay 0
    #: when ``checkpoint=None``; the ordinary counters above are restored
    #: on rollback, so a recovered run's totals equal a fault-free run's.
    rollbacks: int = 0
    replayed_passes: int = 0
    checkpoints: int = 0

    @property
    def redundancy_ratio(self) -> float:
        """Processed / written cells (>= 1; the overlapped-blocking cost)."""
        if self.cells_written == 0:
            return 1.0
        return self.cells_processed / self.cells_written

    @property
    def bytes_transferred(self) -> int:
        """External-memory traffic in bytes (float32 words)."""
        return 4 * (self.words_read + self.words_written)


def _aligned_f32(n: int, align: int = 64) -> np.ndarray:
    """A float32 buffer of ``n`` elements whose base is ``align``-byte
    aligned (NumPy only guarantees 16).  The view keeps the oversized
    backing array alive; the native driver's per-worker ping/pong
    scratch bases then stay on cache-line boundaries because
    ``scratch_floats`` is rounded to a 64-byte multiple at table-build
    time."""
    pad = align // 4
    raw = np.empty(n + pad, dtype=np.float32)
    off = (-raw.ctypes.data) % align // 4
    return raw[off : off + n]


class _Scratch:
    """Pool of preallocated, shape-exact scratch buffers (NumPy pass).

    Keyed by ``(role, shape)`` so every buffer handed to the hot loop is
    C-contiguous (a strided view into one max-sized buffer would knock
    NumPy off its contiguous ufunc fast paths).  A plan has only a
    handful of distinct block footprints and window shapes, so the pool
    stays tiny and every pass after the first allocates nothing.
    """

    def __init__(self) -> None:
        self._bufs: dict[tuple, np.ndarray] = {}

    def get(self, role: str, shape: tuple[int, ...]) -> np.ndarray:
        buf = self._bufs.get((role, shape))
        if buf is None:
            buf = np.empty(shape, dtype=np.float32)
            self._bufs[(role, shape)] = buf
        return buf


class FPGAAccelerator:
    """Functional model of the blocked, PE-chained stencil accelerator.

    Parameters
    ----------
    spec:
        The stencil to compute.
    config:
        Blocking/vectorization/temporal-parallelism knobs; must agree with
        ``spec`` on ``dims`` and ``radius``.
    boundary:
        ``"clamp"`` (the paper's) or ``"periodic"``.
    workers:
        Size of the native driver's worker pool.  ``None`` (default)
        means one worker per CPU this process may run on
        (:func:`~repro.core.native.usable_cpus`, its affinity mask); an
        int pins the size.  Blocks within a pass are independent and
        write disjoint output slices, so the result is bit-identical
        for every worker count.  A pass with a single block (or a
        one-worker pool) runs inline on the calling thread.  The NumPy
        pass and armed fault-injection runs always execute serially —
        the channel transport and injector bookkeeping are deliberately
        sequential.
    engine:
        ``"auto"`` (default) walks the ladder ``native -> numpy``:
        whole passes execute through the generated fused pass driver
        (rows padded to ``vector_width_for(config.parvec)`` SIMD lanes,
        ``#pragma omp simd`` inner loops, final stage fused into the
        output grid) when a C compiler is available, else through the
        serial NumPy pass.  ``"native"`` pins the driver and
        ``"numpy"`` the NumPy pass; ``"native-scalar"`` pins the same
        driver source at ``VEC=1`` *compiled with vectorization off* —
        the baseline SIMD speedups are measured against, never selected
        by ``"auto"``.  Pinned native engines raise
        :class:`ConfigurationError` when they cannot be built.  All
        engines are bit-identical (tested); the knob exists for
        benchmarking and for environments without a toolchain.
        :attr:`resolved_engine` reports what ``"auto"`` selected.

    Notes
    -----
    The driver's pthread pool (blocks claimed by work-stealing off one
    atomic counter) and the scratch buffers are created once per
    accelerator and reused by every :meth:`run` call.  Because those
    resources are shared, a single accelerator instance must not execute
    two ``run`` calls concurrently — use one instance per thread (as
    :class:`repro.runtime.scheduler.StencilScheduler` does).
    :meth:`close` releases the pool early; otherwise it is freed with
    the accelerator.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.core import StencilSpec, BlockingConfig, FPGAAccelerator
    >>> spec = StencilSpec.star(2, 1)
    >>> cfg = BlockingConfig(dims=2, radius=1, bsize_x=32, parvec=4, partime=2)
    >>> acc = FPGAAccelerator(spec, cfg)
    >>> grid = np.ones((16, 48), dtype=np.float32)
    >>> out, stats = acc.run(grid, iterations=4)
    >>> bool(np.allclose(out, 1.0))   # constant field is a fixed point
    True
    >>> stats.passes
    2
    """

    #: Spin attempts a channel transport tolerates before the watchdog
    #: declares the FIFO wedged (armed mode only).
    STALL_WATCHDOG = 256

    def __init__(
        self,
        spec: StencilSpec,
        config: BlockingConfig,
        boundary: str = "clamp",
        stall_watchdog: int | None = None,
        workers: int | None = None,
        engine: str = "auto",
    ):
        if spec.dims != config.dims:
            raise ConfigurationError(
                f"stencil is {spec.dims}D but config is {config.dims}D"
            )
        if spec.radius != config.radius:
            raise ConfigurationError(
                f"stencil radius {spec.radius} != config radius {config.radius}"
            )
        if boundary not in ("clamp", "periodic"):
            raise ConfigurationError(
                f"boundary must be 'clamp' or 'periodic', got {boundary!r}"
            )
        if stall_watchdog is not None and stall_watchdog < 1:
            raise ConfigurationError(
                f"stall_watchdog must be >= 1, got {stall_watchdog}"
            )
        if workers is None:
            workers = usable_cpus()
        elif workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        check_engine(engine, ACCELERATOR_ENGINES)
        self.spec = spec
        self.config = config
        self.boundary = boundary
        self.workers = workers
        self.stall_watchdog = (
            stall_watchdog if stall_watchdog is not None else self.STALL_WATCHDOG
        )
        self._terms = stencil_terms(spec, spec.dims)
        self.engine = engine
        self._driver = None
        if engine == "native-scalar":
            self._driver = native_driver(spec, workers, 1, SCALAR_FLAGS)
        elif engine != "numpy":
            self._driver = native_driver(
                spec, workers, vector_width_for(config.parvec)
            )
        if engine not in ("auto", "numpy") and self._driver is None:
            raise ConfigurationError(
                f"engine={engine!r} but no native pass driver could be "
                "built (no C compiler, compile failure, or REPRO_NO_NATIVE "
                "set)"
            )
        # Execution resources reused by every run(), like the driver's
        # own persistent pthread pool.
        self._scratch = _Scratch()
        self._driver_scratch: np.ndarray | None = None
        self._closed = False

    @classmethod
    def for_workload(
        cls,
        spec: StencilSpec,
        shape: tuple[int, ...],
        boundary: str = "clamp",
        iterations: int = 1,
        engine: str = "auto",
        workers: int | None = None,
    ) -> "FPGAAccelerator":
        """An accelerator whose blocking config is picked by the autotuner.

        Consults the persistent plan-selection cache in
        :mod:`repro.runtime.autotune` (micro-benchmarking model-ranked
        candidates on a cold key, reloading the persisted winner on a
        warm one; :envvar:`REPRO_NO_AUTOTUNE` degrades to the analytical
        model's choice).  Imported lazily — the core layer stays
        importable without the runtime package and pinning a config by
        hand never touches the tuner.
        """
        from repro.runtime.autotune import resolve_config

        config = resolve_config(
            spec, shape, boundary=boundary, iterations=iterations,
            engine=engine,
        )
        return cls(
            spec, config, boundary=boundary, workers=workers, engine=engine
        )

    @property
    def resolved_engine(self) -> str:
        """The engine actually executing disarmed passes.

        ``"native"`` or ``"numpy"`` — what the ``"auto"`` ladder
        selected — or ``"native-scalar"`` when pinned.  Armed
        fault-injection runs always take the serial channel path
        regardless.
        """
        if self._driver is None:
            return "numpy"
        return "native-scalar" if self.engine == "native-scalar" else "native"

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has released the worker pool."""
        return self._closed

    def close(self) -> None:
        """Release the persistent worker pool (idempotent).

        Joins the driver's pthread pool and drops the scratch buffers.
        A closed accelerator is *terminal*:
        :meth:`run` raises a typed :class:`ConfigurationError` instead
        of silently degrading (or, worse, touching a parked pool) —
        long-running services rely on this to turn a
        use-after-release bug into a visible error rather than a
        deadlock.
        """
        if self._closed:
            return
        self._closed = True
        if self._driver is not None:
            self._driver.close()
            self._driver = None
        self._scratch = _Scratch()
        self._driver_scratch = None

    # ------------------------------------------------------------------ #

    def run(
        self,
        grid: np.ndarray,
        iterations: int,
        expected_crc: int | None = None,
        checkpoint=None,
    ) -> tuple[np.ndarray, AcceleratorStats]:
        """Advance ``grid`` by ``iterations`` time steps.

        Returns ``(result, stats)``; the input array is not modified.  If
        ``iterations`` is not a multiple of ``partime`` the final pass runs
        only the remaining steps (the hardware equivalent: trailing PEs
        forward data unchanged).

        ``expected_crc`` is the golden-CRC check: when given, the CRC32
        of the float32 result must match it or
        :class:`~repro.errors.FaultDetectedError` is raised.  While a
        :class:`repro.faults.FaultPlan` is armed, the run additionally
        carries per-block checksums across every PE-chain hop (and a
        stall watchdog on each hop), so injected SEUs, corrupted channel
        items, and wedged FIFOs are caught before the corrupt block
        reaches external memory.

        ``checkpoint`` enables pass-granular recovery: a
        :class:`~repro.runtime.checkpoint.CheckpointPolicy` (or an int
        ``k``, shorthand for ``CheckpointPolicy(every=k)``) snapshots the
        grid every ``k`` completed passes, and a detected fault rolls
        back to the last good snapshot and re-executes only the tail
        (cost surfaced via ``stats.rollbacks`` / ``stats.replayed_passes``
        / ``stats.checkpoints``).  With ``checkpoint=None`` (default) the
        run takes exactly the pre-checkpoint path — no snapshots, no
        copies, no overhead — and detected faults propagate to the
        caller as before.
        """
        if self._closed:
            raise ConfigurationError(
                "accelerator is closed; create a new instance",
                param="closed",
                value=True,
                constraint="run() requires an open accelerator "
                "(close() released the worker pools)",
            )
        spec, config = self.spec, self.config
        if grid.ndim != spec.dims:
            raise ConfigurationError(
                f"grid is {grid.ndim}D but stencil is {spec.dims}D"
            )
        if iterations < 0:
            raise ConfigurationError(f"iterations must be >= 0, got {iterations}")
        grid = np.ascontiguousarray(grid, dtype=np.float32)

        plan = get_pass_plan(config, grid.shape, self.boundary)
        stats = AcceleratorStats(
            blocks_per_pass=len(plan.blocks),
            shift_register_words_per_pe=shift_register_words(config),
            grid_shape=grid.shape,
        )
        if iterations == 0:
            result = grid.copy()
            self._golden_check(result, expected_crc, stats)
            return result, stats

        mgr = None
        if checkpoint is not None:
            # Imported lazily: repro.runtime imports this module, so a
            # top-level import would cycle — and the checkpoint=None hot
            # path must not even pay for the import.
            from repro.runtime.checkpoint import as_manager

            mgr = as_manager(checkpoint)
            mgr.seed(grid, stats)

        # Ping-pong output buffers: two allocations per run (passes
        # alternate between them) instead of one ``np.empty_like`` per
        # pass.  Both are this run's own arrays, so the returned result
        # never aliases accelerator state or a checkpoint snapshot.
        pong = (np.empty_like(grid), np.empty_like(grid))
        current = grid
        remaining = iterations
        while True:
            try:
                while remaining > 0:
                    steps = min(config.partime, remaining)
                    out = pong[0] if current is not pong[0] else pong[1]
                    self._run_pass(current, out, plan, steps, stats)
                    current = out
                    remaining -= steps
                    stats.passes += 1
                    stats.steps_executed += steps
                    if mgr is not None:
                        mgr.maybe_snapshot(current, stats, remaining)
                self._golden_check(current, expected_crc, stats)
                break
            except FaultDetectedError as err:
                # WatchdogTimeoutError is a FaultDetectedError, so a
                # wedged-channel watchdog mid-pass rolls back too.
                if mgr is None:
                    raise
                current = mgr.rollback(stats, err)
                remaining = iterations - stats.steps_executed
        return current, stats

    @staticmethod
    def _golden_check(
        result: np.ndarray, expected_crc: int | None, stats: AcceleratorStats
    ) -> None:
        """Verify the result against a caller-supplied golden CRC."""
        if expected_crc is None and fault_hooks.ACTIVE is None:
            return
        stats.output_crc32 = crc32_array(result)
        if expected_crc is not None and stats.output_crc32 != expected_crc:
            raise fault_hooks.report_detection(
                FaultDetectedError(
                    f"golden-CRC mismatch: result CRC {stats.output_crc32:#010x} "
                    f"!= expected {expected_crc:#010x}"
                )
            )

    # ------------------------------------------------------------------ #

    def run_batch(
        self,
        grids: Sequence[np.ndarray],
        iterations: int,
        expected_crcs: Sequence[int | None] | None = None,
        checkpoint=None,
    ) -> BatchResult:
        """Advance ``len(grids)`` same-shape grids by ``iterations`` steps.

        The batched analogue of :meth:`run` for many *small* grids: all
        grids are packed into one contiguous slab and — on the fused
        native driver — every pass over the whole batch is a single
        ctypes call with one scratch allocation, the pool's atomic claim
        counter ranging over ``(grid, block)`` pairs.  Per-job overhead
        (plan lookup, dispatch, accounting) is paid once per batch
        instead of once per grid.  The NumPy fallback executes the same
        slab loop grid by grid.  Either way the outputs are
        bit-identical to ``len(grids)`` separate :meth:`run` calls (a
        tested invariant): batching changes scheduling, never numerics.

        Semantics per batch:

        * **deadline** — callers (the scheduler) budget the batch as one
          job; there is no per-grid deadline inside a batch.
        * **checkpoint** — snapshots cover the whole slab: a rollback
          rewinds every grid to the last good batch pass.  (Armed runs
          take the per-grid path below, where each grid recovers
          independently under a fresh manager of the same policy.)
        * **faults** — while a fault plan is armed the batch executes
          grid by grid through the hardened channel path, and a detected
          fault in one grid fails *only that entry* of the returned
          :class:`~repro.core.batch.BatchResult`; the remaining grids
          complete bit-exact.

        ``expected_crcs`` optionally supplies a golden CRC32 per grid
        (``None`` entries skip the check); mismatches fail the affected
        entries only.  ``stats`` aggregates counters over the whole
        batch (per-pass quantities scale by the batch size).
        """
        if self._closed:
            raise ConfigurationError(
                "accelerator is closed; create a new instance",
                param="closed",
                value=True,
                constraint="run_batch() requires an open accelerator "
                "(close() released the worker pools)",
            )
        if len(grids) == 0:
            raise ConfigurationError(
                "run_batch() needs at least one grid",
                param="grids", value=0, constraint="len(grids) >= 1",
            )
        if iterations < 0:
            raise ConfigurationError(
                f"iterations must be >= 0, got {iterations}"
            )
        if expected_crcs is not None and len(expected_crcs) != len(grids):
            raise ConfigurationError(
                f"expected_crcs has {len(expected_crcs)} entries for "
                f"{len(grids)} grids",
                param="expected_crcs", value=len(expected_crcs),
                constraint="len(expected_crcs) == len(grids)",
            )
        spec, config = self.spec, self.config
        arrays = [np.ascontiguousarray(g, dtype=np.float32) for g in grids]
        if arrays[0].ndim != spec.dims:
            raise ConfigurationError(
                f"grid is {arrays[0].ndim}D but stencil is {spec.dims}D"
            )
        bplan = BatchPlan(
            config, tuple(arrays[0].shape), len(arrays), self.boundary
        )
        plan = bplan.plan
        n_grids = bplan.n_grids
        stats = AcceleratorStats(
            blocks_per_pass=n_grids * len(plan.blocks),
            shift_register_words_per_pe=shift_register_words(config),
            grid_shape=bplan.grid_shape,
        )

        if fault_hooks.ACTIVE is not None:
            return self._run_batch_armed(
                arrays, iterations, expected_crcs, checkpoint, stats
            )

        errors: list[Exception | None] = [None] * n_grids
        if iterations == 0:
            outputs: list[np.ndarray | None] = [a.copy() for a in arrays]
            self._batch_golden(outputs, errors, expected_crcs, stats)
            return BatchResult(outputs, errors, stats)

        slab = bplan.pack(arrays)
        mgr = None
        if checkpoint is not None:
            from repro.runtime.checkpoint import as_manager

            mgr = as_manager(checkpoint)
            mgr.seed(slab, stats)

        pong = (np.empty_like(slab), np.empty_like(slab))
        current = slab
        remaining = iterations
        while True:
            try:
                while remaining > 0:
                    steps = min(config.partime, remaining)
                    out = pong[0] if current is not pong[0] else pong[1]
                    if self._driver is not None:
                        tables = self._driver_tables(plan, steps)
                        self._driver.run_batch_pass(
                            current, out, tables, plan.periodic,
                            self._driver_scratch, n_grids, bplan.grid_stride,
                        )
                    else:
                        # each slab entry is C-contiguous, so a grid's
                        # view runs exactly like a standalone grid
                        windows = plan.windows(steps)
                        for g in range(n_grids):
                            self._exec_blocks(current[g], out[g], plan, windows)
                    self._account_pass(stats, plan, n_grids)
                    current = out
                    remaining -= steps
                    stats.passes += 1
                    stats.steps_executed += steps
                    if mgr is not None:
                        mgr.maybe_snapshot(current, stats, remaining)
                break
            except FaultDetectedError as err:
                if mgr is None:
                    raise
                current = mgr.rollback(stats, err)
                remaining = iterations - stats.steps_executed
        outputs = list(bplan.unpack(current))
        self._batch_golden(outputs, errors, expected_crcs, stats)
        return BatchResult(outputs, errors, stats)

    def _run_batch_armed(
        self,
        arrays: list[np.ndarray],
        iterations: int,
        expected_crcs,
        checkpoint,
        stats: AcceleratorStats,
    ) -> BatchResult:
        """Armed batch: hardened per-grid execution, per-grid failures.

        Fault injection is deliberately sequential (channel transport
        and injector bookkeeping), so an armed batch degrades to the
        per-grid channel path — each grid under its *own* checkpoint
        manager (same policy), so one grid's exhausted rollback budget
        never consumes another's.  A detected fault fails only the
        affected entry; counters of completed grids still aggregate.
        """
        outputs: list[np.ndarray | None] = []
        errors: list[Exception | None] = []
        policy = None
        if checkpoint is not None:
            from repro.runtime.checkpoint import CheckpointManager, as_manager

            policy = (
                checkpoint.policy
                if isinstance(checkpoint, CheckpointManager)
                else as_manager(checkpoint).policy
            )
        for g, grid in enumerate(arrays):
            crc = expected_crcs[g] if expected_crcs is not None else None
            try:
                out, s = self.run(
                    grid, iterations, expected_crc=crc,
                    checkpoint=policy,
                )
            except FaultDetectedError as err:
                outputs.append(None)
                errors.append(err)
                continue
            outputs.append(out)
            errors.append(None)
            for name in (
                "passes", "steps_executed", "cells_written",
                "cells_processed", "words_read", "words_written",
                "vector_ops", "pe_invocations", "rollbacks",
                "replayed_passes", "checkpoints",
            ):
                setattr(stats, name, getattr(stats, name) + getattr(s, name))
        return BatchResult(outputs, errors, stats)

    @staticmethod
    def _batch_golden(
        outputs: list[np.ndarray | None],
        errors: list[Exception | None],
        expected_crcs,
        stats: AcceleratorStats,
    ) -> None:
        """Per-grid golden-CRC check: mismatches fail only their entry."""
        if expected_crcs is None:
            return
        for g, crc in enumerate(expected_crcs):
            if crc is None or outputs[g] is None:
                continue
            got = crc32_array(outputs[g])
            if got != crc:
                errors[g] = fault_hooks.report_detection(
                    FaultDetectedError(
                        f"golden-CRC mismatch on batch grid {g}: result CRC "
                        f"{got:#010x} != expected {crc:#010x}"
                    )
                )
                outputs[g] = None

    # ------------------------------------------------------------------ #

    def _run_pass(
        self,
        src: np.ndarray,
        out: np.ndarray,
        plan: PassPlan,
        steps: int,
        stats: AcceleratorStats,
    ) -> None:
        """One pass: every block flows through ``steps`` chained PE stages.

        Disarmed, the whole pass executes in one ctypes call through the
        native driver (its persistent pthread pool work-steals blocks),
        or — NumPy fallback — blocks execute the cached plan serially
        against preallocated scratch buffers.  When a fault plan is
        armed, the pass instead moves each block between stages through
        real :class:`~repro.core.channels.Channel` objects carrying
        per-block checksums — the hardened design's detection path; the
        numerics are bit-identical every way.
        """
        inj = fault_hooks.ACTIVE
        if inj is not None:
            windows = plan.windows(steps)
            self._run_pass_armed(src, out, plan, windows, steps, inj)
        elif self._driver is not None:
            tables = self._driver_tables(plan, steps)
            self._driver.run_pass(
                src, out, tables, plan.periodic, self._driver_scratch
            )
        else:
            self._exec_blocks(src, out, plan, plan.windows(steps))

        self._account_pass(stats, plan)

    def _driver_tables(self, plan: PassPlan, steps: int) -> DriverTables:
        """The driver's tables for a ``steps`` pass, with scratch to match.

        Grows the shared aligned scratch buffer (ping and pong per pool
        worker) when these tables need more than the last ones did.
        """
        tables = plan.to_driver_tables(steps, self._driver.vector_width)
        need = self._driver.workers * 2 * tables.scratch_floats
        if self._driver_scratch is None or self._driver_scratch.size < need:
            self._driver_scratch = _aligned_f32(need)
        return tables

    def _account_pass(
        self, stats: AcceleratorStats, plan: PassPlan, grids: int = 1
    ) -> None:
        """Charge one pass's fixed-footprint counters (``grids`` times).

        The hardware runs the full fixed footprint every pass — all
        partime PE slots, all bsize pipeline slots — even on a partial
        final pass (see AcceleratorStats).  A batched pass is ``grids``
        identical per-grid passes back to back, so every counter scales
        linearly.
        """
        stats.cells_written += grids * plan.cells_written_per_pass
        stats.cells_processed += grids * plan.cells_processed_per_pass
        stats.words_read += grids * plan.cells_processed_per_pass
        stats.words_written += grids * plan.cells_written_per_pass
        stats.vector_ops += grids * plan.vector_ops_per_pass
        stats.pe_invocations += grids * len(plan.blocks) * self.config.partime

    #: Target cells per streamed-axis chunk of one stage update (~256 KiB
    #: of float32): keeps the per-term scratch traffic inside the cache
    #: hierarchy instead of streaming the whole block once per term.
    CHUNK_CELLS = 65536

    def _exec_blocks(
        self,
        src: np.ndarray,
        out: np.ndarray,
        plan: PassPlan,
        windows,
    ) -> None:
        """The NumPy pass: every block in turn, against one scratch pool.

        Each stage accumulates into a window-shaped contiguous buffer,
        chunked along the streamed axis (all chunks read the stage input
        ``padded`` and only then overwrite the block, so chunking never
        perturbs neighbor reads — and per-element FLOP order is exactly
        the reference's).
        """
        spec = self.spec
        rad = self.config.radius
        blocked_axes = self.config.blocked_axes
        periodic = plan.periodic
        boundary = self.boundary
        terms = self._terms
        scratch = self._scratch
        for bi, bp in enumerate(plan.blocks):
            n0 = bp.footprint[0]
            padded = scratch.get("padded", (n0 + 2 * rad,) + bp.footprint[1:])
            cur = padded[rad : rad + n0]
            # --- read kernel: segment copies straight into the scratch
            bp.gather_into(src, cur)
            slab_cells = 1
            for extent in bp.footprint[1:]:
                slab_cells *= extent
            chunk = max(1, self.CHUNK_CELLS // slab_cells)
            # --- PE chain: one time step per stage, shrinking window
            for window in windows[bi]:
                fill_stream_halo(padded, n0, rad, boundary)
                wshape = tuple(hi - lo for lo, hi in window)
                acc = scratch.get("acc", wshape)
                z_lo, z_hi = window[0]
                for z0 in range(z_lo, z_hi, chunk):
                    z1 = min(z0 + chunk, z_hi)
                    pe_step_padded(
                        padded,
                        spec,
                        ((z0, z1),) + window[1:],
                        out=acc[z0 - z_lo : z1 - z_lo],
                        tmp=scratch.get("tmp", (z1 - z0,) + wshape[1:]),
                        terms=terms,
                    )
                cur[tuple(slice(lo, hi) for lo, hi in window)] = acc
                if not periodic:
                    for local_axis, axis in enumerate(blocked_axes):
                        refresh_border_duplicates(
                            cur, axis, bp.dup_lo[local_axis], bp.dup_hi[local_axis]
                        )
            # --- write kernel: store the compute region
            out[bp.write_sl] = cur[bp.read_sl]

    def _run_pass_armed(
        self,
        src: np.ndarray,
        out: np.ndarray,
        plan: PassPlan,
        windows,
        steps: int,
        inj,
    ) -> None:
        """Hardened pass: per-block checksums hop across every chain stage.

        Uses the same cached plan geometry as the fast path but moves the
        block payload through real channels between stages (read kernel ->
        PE_0 -> ... -> write kernel), re-encoding the checksum after every
        PE update so in-flight corruption and SEUs at rest are detected at
        the next hop.
        """
        spec = self.spec
        blocked_axes = self.config.blocked_axes
        periodic = plan.periodic
        names = (
            ["read->pe0"]
            + [f"pe{i - 1}->pe{i}" for i in range(1, steps)]
            + [f"pe{steps - 1}->write"]
        )
        chans = [Channel(1, name=n) for n in names]
        for bi, bp in enumerate(plan.blocks):
            # contiguous private buffer: the injector flips bits in place
            cur = np.empty(bp.footprint, dtype=np.float32)
            bp.gather_into(src, cur)
            crc = crc32_array(cur)  # read kernel's per-block checksum
            inj.touch_sram(cur, site="block-buffer")
            for s, window in enumerate(windows[bi], start=1):
                cur = self._transport(chans[s - 1], cur, crc)
                new_vals = pe_step(cur, spec, window, self.boundary)
                cur[tuple(slice(lo, hi) for lo, hi in window)] = new_vals
                if not periodic:
                    for local_axis, axis in enumerate(blocked_axes):
                        refresh_border_duplicates(
                            cur, axis, bp.dup_lo[local_axis], bp.dup_hi[local_axis]
                        )
                crc = crc32_array(cur)  # re-encode after the update
                inj.touch_sram(cur, site="block-buffer")
            cur = self._transport(chans[steps], cur, crc)
            out[bp.write_sl] = cur[bp.read_sl]

    def _transport(self, chan: Channel, payload: np.ndarray, crc: int) -> np.ndarray:
        """Move a block through a channel hop with checksum verification.

        Armed-mode only.  The write port spins under back-pressure (a
        :class:`repro.faults.ChannelStallFault` can wedge it); spinning
        past ``stall_watchdog`` raises
        :class:`~repro.errors.WatchdogTimeoutError`.  The consumer
        re-checksums what arrives, so in-flight corruption (or an SEU
        injected since the checksum was encoded) raises
        :class:`~repro.errors.FaultDetectedError`.
        """
        spins = 0
        while not chan.try_write(payload):
            spins += 1
            if spins > self.stall_watchdog:
                raise fault_hooks.report_detection(
                    WatchdogTimeoutError(
                        f"channel {chan.name!r} write stalled for {spins} "
                        f"attempts (watchdog {self.stall_watchdog})"
                    )
                )
        spins = 0
        while True:
            ok, item = chan.try_read()
            if ok:
                break
            spins += 1
            if spins > self.stall_watchdog:
                raise fault_hooks.report_detection(
                    WatchdogTimeoutError(
                        f"channel {chan.name!r} read stalled for {spins} "
                        f"attempts (watchdog {self.stall_watchdog})"
                    )
                )
        if crc32_array(item) != crc:
            raise fault_hooks.report_detection(
                FaultDetectedError(
                    f"per-block checksum mismatch after {chan.name!r}: "
                    "block data corrupted in flight or at rest"
                )
            )
        return item


#: Re-exported for introspection/tests: the plan types the engine executes.
__all__ = [
    "AcceleratorStats",
    "FPGAAccelerator",
    "BlockPlan",
    "PassPlan",
    "get_pass_plan",
]
