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
pass is pure execution.  Every run — one grid or a batch — is one pass
loop over a C-contiguous ``(n_grids, *grid_shape)`` slab; a single grid
is a one-grid slab view.  With a C compiler, a whole pass over the slab
runs in one call into the generated native pass driver
(:mod:`repro.core.native`), whose persistent worker pool claims
``(grid, block)`` units off one atomic counter; without one, a serial
NumPy pass does slice copies into a preallocated stream-padded scratch
buffer and in-place stencil accumulation, grid by grid.  While a fault plan is
armed every pass runs the NumPy pass hardened, hopping each block
through real channels with per-stage checksums.
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
#: driver source, run on width-1 tables and built with vectorization
#: off — the SIMD benchmarking baseline, which nothing selects on its
#: own.
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


class _PassTargets:
    """Output arrays for a run's passes, alternating so the last lands in
    ``out``.

    A pass writes ``out`` when an odd number of passes (counting itself)
    remain, else a second array allocated on first use — so a one-pass
    run allocates nothing beyond ``out``.  The choice depends only on
    the steps left, so it stays right after a checkpoint rollback
    restarts the tail from a snapshot.
    """

    def __init__(self, out: np.ndarray, partime: int) -> None:
        self.out = out
        self.partime = partime
        self._other: np.ndarray | None = None

    def next(self, remaining: int) -> np.ndarray:
        if -(-remaining // self.partime) % 2:
            return self.out
        if self._other is None:
            self._other = np.empty_like(self.out)
        return self._other


def golden_check(result: np.ndarray, expected_crc: int | None, stats) -> None:
    """Verify ``result`` against a caller-supplied golden CRC.

    While a fault plan is armed, or when ``expected_crc`` is given, the
    result's CRC32 is recorded in ``stats.output_crc32``; a mismatch
    raises :class:`~repro.errors.FaultDetectedError`.  Every run ends
    in this check.
    """
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


def _check_out(out: np.ndarray, shape: tuple[int, ...], inputs) -> None:
    """Raise :class:`ConfigurationError` unless ``out`` can take a result
    of ``shape``: float32, C-contiguous, writeable and sharing no memory
    with any of ``inputs``."""
    problem = None
    if not isinstance(out, np.ndarray):
        problem = f"out must be a numpy array, got {type(out).__name__}"
    elif out.shape != shape or out.dtype != np.float32:
        problem = (
            f"out is {out.dtype}{list(out.shape)}, result is "
            f"float32{list(shape)}"
        )
    elif not (out.flags.c_contiguous and out.flags.writeable):
        problem = "out must be C-contiguous and writeable"
    elif any(np.may_share_memory(out, a) for a in inputs):
        problem = "out must not share memory with the input"
    if problem is not None:
        raise ConfigurationError(
            problem, param="out", value=getattr(out, "shape", out),
            constraint=f"writeable C-contiguous float32{list(shape)} "
            "disjoint from the input",
        )


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
        driver source on width-1 tables *compiled with vectorization
        off* — the baseline SIMD speedups are measured against, never
        selected by ``"auto"``.  Pinned native engines raise
        :class:`ConfigurationError` when they cannot be built.  All
        engines are bit-identical (tested); the knob exists for
        benchmarking and for environments without a toolchain.
        :attr:`resolved_engine` reports what ``"auto"`` selected.

    Notes
    -----
    :meth:`run` and :meth:`run_batch` share one pass loop over a
    ``(n_grids, *grid_shape)`` slab.  The driver's pthread pool
    (``(grid, block)`` units claimed by work-stealing off one atomic
    counter) and the scratch buffers are created once per accelerator
    and reused by every call.  Because those resources are shared, a
    single accelerator instance must not execute two runs concurrently
    — use one instance per thread (as
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
        if workers is None:
            workers = usable_cpus()
        elif workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        check_engine(engine, ACCELERATOR_ENGINES)
        self.spec = spec
        self.config = config
        self.boundary = boundary
        self.workers = workers
        self._terms = stencil_terms(spec, spec.dims)
        self.engine = engine
        self._driver = None
        #: SIMD lanes the driver tables of this accelerator pad scratch
        #: rows to; the compiled driver has no width of its own.
        self._vector_width = (
            1 if engine == "native-scalar" else vector_width_for(config.parvec)
        )
        if engine == "native-scalar":
            self._driver = native_driver(spec, workers, SCALAR_FLAGS)
        elif engine != "numpy":
            self._driver = native_driver(spec, workers)
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

    def _check_call(self, method: str, grid_ndim: int, iterations: int) -> None:
        """The argument checks :meth:`run` and :meth:`run_batch` share."""
        if self._closed:
            raise ConfigurationError(
                "accelerator is closed; create a new instance",
                param="closed",
                value=True,
                constraint=f"{method}() requires an open accelerator "
                "(close() released the worker pools)",
            )
        if grid_ndim != self.spec.dims:
            raise ConfigurationError(
                f"grid is {grid_ndim}D but stencil is {self.spec.dims}D"
            )
        if iterations < 0:
            raise ConfigurationError(f"iterations must be >= 0, got {iterations}")

    def run(
        self,
        grid: np.ndarray,
        iterations: int,
        expected_crc: int | None = None,
        checkpoint=None,
        out: np.ndarray | None = None,
    ) -> tuple[np.ndarray, AcceleratorStats]:
        """Advance ``grid`` by ``iterations`` time steps.

        Returns ``(result, stats)``; the input array is not modified.  If
        ``iterations`` is not a multiple of ``partime`` the final pass runs
        only the remaining steps (the hardware equivalent: trailing PEs
        forward data unchanged).  The grid runs as a one-grid slab
        (a ``grid[None]`` view, no copy) through the same pass loop as
        :meth:`run_batch`.

        ``out`` receives the result: a writeable C-contiguous float32
        array of the grid's shape that shares no memory with ``grid``
        (else :class:`ConfigurationError`).  The passes alternate
        between ``out`` and one scratch array so that the last pass
        writes straight into ``out``; ``iterations == 0`` copies the
        input into it.  The returned ``result`` *is* ``out``.  Without
        ``out`` the result is a fresh array of this run's own, never
        aliasing accelerator state or a checkpoint snapshot.

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
        grid every ``k`` completed passes, and a detected fault —
        a golden-CRC mismatch included — rolls back to the last good
        snapshot and re-executes only the tail (cost surfaced via
        ``stats.rollbacks`` / ``stats.replayed_passes`` /
        ``stats.checkpoints``).  With ``checkpoint=None`` (default) the
        run takes no snapshots and makes no copies, and detected faults
        propagate to the caller.
        """
        grid = np.ascontiguousarray(grid, dtype=np.float32)
        self._check_call("run", grid.ndim, iterations)
        if out is None:
            out = np.empty_like(grid)
        else:
            _check_out(out, grid.shape, (grid,))
        slab = grid[None]
        plan, stats = self._start(slab)
        self._advance(
            slab, out[None], plan, stats, iterations, checkpoint, expected_crc
        )
        return out, stats

    # ------------------------------------------------------------------ #

    def run_batch(
        self,
        grids: Sequence[np.ndarray] | np.ndarray,
        iterations: int,
        expected_crcs: Sequence[int | None] | None = None,
        checkpoint=None,
        out: np.ndarray | None = None,
    ) -> BatchResult:
        """Advance ``len(grids)`` same-shape grids by ``iterations`` steps.

        The batched analogue of :meth:`run` for many *small* grids, and
        the same pass loop: the grids form one C-contiguous
        ``(len(grids),) + grid_shape`` slab, and every pass covers the
        whole slab — on the native driver one ctypes call whose claim
        counter ranges over ``(grid, block)`` pairs, on the NumPy pass
        the grids in turn.  Per-job overhead (plan lookup, dispatch,
        accounting) is paid once per batch instead of once per grid.
        ``grids`` is either a sequence of arrays, packed into a new slab
        (a single grid is used as a ``[None]`` view), or an
        already-stacked ``(n, *grid_shape)`` array, used as the slab
        without a copy when it is C-contiguous float32.  The input is
        never modified.  The outputs are bit-identical to
        ``len(grids)`` separate :meth:`run` calls (a tested invariant):
        batching changes scheduling, never numerics.

        Semantics per batch:

        * **deadline** — callers (the scheduler) budget the batch as one
          job; there is no per-grid deadline inside a batch.
        * **checkpoint** — snapshots cover the whole slab: a rollback
          rewinds every grid to the last good batch pass.  (Armed runs
          take the per-grid path below, where each grid recovers
          independently under a fresh manager of the same policy.)
        * **faults** — while a fault plan is armed the batch executes
          grid by grid through :meth:`run` on the hardened channel path,
          and a detected fault in one grid fails *only that entry* of
          the returned :class:`~repro.core.batch.BatchResult`; the
          remaining grids complete bit-exact.

        ``expected_crcs`` optionally supplies a golden CRC32 per grid
        (``None`` entries skip the check); mismatches fail the affected
        entries only.  ``stats`` aggregates counters over the whole
        batch (per-pass quantities scale by the batch size).

        ``out`` is the output slab — a writeable C-contiguous float32
        array of shape ``(len(grids),) + grid_shape`` sharing no memory
        with the inputs (else :class:`ConfigurationError`).  The last
        pass writes straight into it, the returned outputs are views of
        its entries, and a failed entry's slot holds that grid's input.
        Without ``out`` the outputs are views of a fresh slab of this
        call's own, sharing no memory with the inputs or accelerator
        state.
        """
        if len(grids) == 0:
            raise ConfigurationError(
                "run_batch() needs at least one grid",
                param="grids", value=0, constraint="len(grids) >= 1",
            )
        first = np.asarray(grids[0])
        self._check_call("run_batch", first.ndim, iterations)
        if isinstance(grids, np.ndarray):
            slab = np.ascontiguousarray(grids, dtype=np.float32)
        elif len(grids) == 1:
            slab = np.ascontiguousarray(first, dtype=np.float32)[None]
        else:
            slab = BatchPlan(
                self.config, first.shape, len(grids), self.boundary
            ).pack(grids)
        n_grids = len(slab)
        if expected_crcs is not None and len(expected_crcs) != n_grids:
            raise ConfigurationError(
                f"expected_crcs has {len(expected_crcs)} entries for "
                f"{n_grids} grids",
                param="expected_crcs", value=len(expected_crcs),
                constraint="len(expected_crcs) == len(grids)",
            )
        if out is None:
            out = np.empty_like(slab)
        else:
            _check_out(
                out, slab.shape,
                (grids,) if isinstance(grids, np.ndarray) else grids,
            )
        plan, stats = self._start(slab)
        if fault_hooks.ACTIVE is not None:
            return self._run_batch_armed(
                slab, iterations, expected_crcs, checkpoint, stats, out
            )
        self._advance(slab, out, plan, stats, iterations, checkpoint)
        result = BatchResult(list(out), [None] * n_grids, stats)
        if expected_crcs is not None:
            self._batch_golden(result, expected_crcs, slab, out)
        return result

    def _start(self, slab: np.ndarray) -> tuple[PassPlan, AcceleratorStats]:
        """The cached plan of ``slab``'s grids and zeroed counters for
        one run over all of them."""
        plan = get_pass_plan(self.config, slab.shape[1:], self.boundary)
        return plan, AcceleratorStats(
            blocks_per_pass=len(slab) * len(plan.blocks),
            shift_register_words_per_pe=shift_register_words(self.config),
            grid_shape=plan.grid_shape,
        )

    def _advance(
        self,
        slab: np.ndarray,
        out: np.ndarray,
        plan: PassPlan,
        stats: AcceleratorStats,
        iterations: int,
        checkpoint,
        expected_crc: int | None = None,
    ) -> None:
        """The pass loop of every run: advance all grids of ``slab``.

        ``slab`` and ``out`` are distinct C-contiguous float32
        ``(n_grids,) + grid_shape`` arrays.  ``ceil(iterations /
        partime)`` passes each cover the whole slab, alternating between
        ``out`` and one scratch slab (:class:`_PassTargets`) so the last
        lands in ``out``; ``iterations == 0`` copies ``slab`` into it.
        ``slab`` itself is only read.  The golden-CRC check of
        ``expected_crc`` runs on the final slab inside the rollback
        scope, so with a ``checkpoint`` a mismatch rolls back like any
        detected fault.
        """
        if iterations == 0:
            np.copyto(out, slab)
            golden_check(out, expected_crc, stats)
            return
        config = self.config
        mgr = None
        if checkpoint is not None:
            # Imported lazily: repro.runtime imports this module, so a
            # top-level import would cycle — and the checkpoint=None hot
            # path must not even pay for the import.
            from repro.runtime.checkpoint import as_manager

            mgr = as_manager(checkpoint)
            mgr.seed(slab, stats)

        targets = _PassTargets(out, config.partime)
        current = slab
        remaining = iterations
        while True:
            try:
                while remaining > 0:
                    steps = min(config.partime, remaining)
                    target = targets.next(remaining)
                    self._run_pass(current, target, plan, steps)
                    self._account_pass(stats, plan, len(slab))
                    current = target
                    remaining -= steps
                    stats.passes += 1
                    stats.steps_executed += steps
                    if mgr is not None:
                        mgr.maybe_snapshot(current, stats, remaining)
                golden_check(current, expected_crc, stats)
                return
            except FaultDetectedError as err:
                # WatchdogTimeoutError is a FaultDetectedError, so a
                # wedged-channel watchdog mid-pass rolls back too.
                if mgr is None:
                    raise
                current = mgr.rollback(stats, err)
                remaining = iterations - stats.steps_executed

    def _run_batch_armed(
        self,
        slab: np.ndarray,
        iterations: int,
        expected_crcs,
        checkpoint,
        stats: AcceleratorStats,
        out: np.ndarray,
    ) -> BatchResult:
        """Armed batch: hardened per-grid execution, per-grid failures.

        Fault injection is deliberately sequential (channel transport
        and injector bookkeeping), so an armed batch degrades to the
        per-grid channel path — each grid under its *own* checkpoint
        manager (same policy), so one grid's exhausted rollback budget
        never consumes another's.  A detected fault fails only the
        affected entry; counters of completed grids still aggregate.
        """
        from repro.runtime.checkpoint import as_manager, merge_counters

        outputs: list[np.ndarray | None] = []
        errors: list[Exception | None] = []
        policy = None if checkpoint is None else as_manager(checkpoint).policy
        for g, grid in enumerate(slab):
            crc = expected_crcs[g] if expected_crcs is not None else None
            try:
                output, s = self.run(
                    grid, iterations, expected_crc=crc,
                    checkpoint=policy, out=out[g],
                )
            except FaultDetectedError as err:
                out[g] = grid  # a failed entry's slot holds its input
                outputs.append(None)
                errors.append(err)
                continue
            outputs.append(output)
            errors.append(None)
            merge_counters(stats, s)
        return BatchResult(outputs, errors, stats)

    @staticmethod
    def _batch_golden(
        result: BatchResult, expected_crcs, slab: np.ndarray, out: np.ndarray
    ) -> None:
        """Per-grid golden-CRC check: a mismatch fails only its entry,
        whose ``out`` slot then holds its input again."""
        outputs = result.outputs
        for g, output in enumerate(outputs):
            if expected_crcs[g] is None or output is None:
                continue
            got = crc32_array(output)
            if got != expected_crcs[g]:
                result.errors[g] = fault_hooks.report_detection(
                    FaultDetectedError(
                        f"golden-CRC mismatch on batch grid {g}: result CRC "
                        f"{got:#010x} != expected {expected_crcs[g]:#010x}"
                    )
                )
                outputs[g] = None
                out[g] = slab[g]

    # ------------------------------------------------------------------ #

    def _run_pass(
        self,
        src: np.ndarray,
        out: np.ndarray,
        plan: PassPlan,
        steps: int,
    ) -> None:
        """One pass over a slab: every block of every grid flows through
        ``steps`` chained PE stages.

        Disarmed, the whole slab's pass executes in one ctypes call
        through the native driver (its persistent pthread pool
        work-steals ``(grid, block)`` units), or — NumPy fallback —
        each grid's blocks execute the cached plan serially against
        preallocated scratch buffers.  When a fault plan is armed, the
        NumPy pass runs hardened (:meth:`_exec_blocks`): every block
        moves between stages through real
        :class:`~repro.core.channels.Channel` objects carrying per-block
        checksums — the hardened design's detection path; the numerics
        are bit-identical every way.
        """
        inj = fault_hooks.ACTIVE
        if inj is None and self._driver is not None:
            tables = self._driver_tables(plan, steps)
            self._driver.run_pass(
                src, out, tables, plan.periodic, self._driver_scratch
            )
            return
        windows = plan.windows(steps)
        for g in range(len(src)):
            self._exec_blocks(src[g], out[g], plan, windows)

    def _driver_tables(self, plan: PassPlan, steps: int) -> DriverTables:
        """The driver's tables for a ``steps`` pass, with scratch to match.

        Grows the shared aligned scratch buffer (ping and pong per pool
        worker) when these tables need more than the last ones did.
        """
        tables = plan.to_driver_tables(steps, self._vector_width)
        need = self._driver.workers * 2 * tables.scratch_floats
        if self._driver_scratch is None or self._driver_scratch.size < need:
            self._driver_scratch = _aligned_f32(need)
        return tables

    def _account_pass(
        self, stats: AcceleratorStats, plan: PassPlan, grids: int
    ) -> None:
        """Charge one pass's fixed-footprint counters (``grids`` times).

        The hardware runs the full fixed footprint every pass — all
        partime PE slots, all bsize pipeline slots — even on a partial
        final pass (see AcceleratorStats).  A pass over a slab is
        ``grids`` identical per-grid passes back to back, so every
        counter scales linearly.
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

        While a fault plan is armed this is the hardened pass: the block
        moves through real channels between stages (read kernel -> PE_0
        -> ... -> write kernel) with a per-block checksum encoded after
        the gather and after every PE update, so in-flight corruption
        and SEUs at rest are detected at the next hop.  The block buffer
        the injector strikes is the contiguous ``bp.footprint`` view
        ``cur``, touched ``1 + steps`` times per block.
        """
        spec = self.spec
        rad = self.config.radius
        blocked_axes = self.config.blocked_axes
        periodic = plan.periodic
        boundary = self.boundary
        terms = self._terms
        scratch = self._scratch
        inj = fault_hooks.ACTIVE
        if inj is not None:
            steps = len(windows[0])
            chans = [
                Channel(1, name=n)
                for n in ["read->pe0"]
                + [f"pe{i - 1}->pe{i}" for i in range(1, steps)]
                + [f"pe{steps - 1}->write"]
            ]
        for bi, bp in enumerate(plan.blocks):
            n0 = bp.footprint[0]
            padded = scratch.get("padded", (n0 + 2 * rad,) + bp.footprint[1:])
            cur = padded[rad : rad + n0]
            # --- read kernel: segment copies straight into the scratch
            bp.gather_into(src, cur)
            if inj is not None:
                crc = crc32_array(cur)  # read kernel's per-block checksum
                inj.touch_sram(cur, site="block-buffer")
            slab_cells = 1
            for extent in bp.footprint[1:]:
                slab_cells *= extent
            chunk = max(1, self.CHUNK_CELLS // slab_cells)
            # --- PE chain: one time step per stage, shrinking window
            for s, window in enumerate(windows[bi]):
                if inj is not None:
                    self._transport(chans[s], cur, crc)
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
                if inj is not None:
                    crc = crc32_array(cur)  # re-encode after the update
                    inj.touch_sram(cur, site="block-buffer")
            if inj is not None:
                self._transport(chans[steps], cur, crc)
            # --- write kernel: store the compute region
            out[bp.write_sl] = cur[bp.read_sl]

    def _transport(self, chan: Channel, block: np.ndarray, crc: int) -> None:
        """Move ``block`` through a channel hop with checksum verification.

        Armed-mode only.  The write port spins under back-pressure (a
        :class:`repro.faults.ChannelStallFault` can wedge it); spinning
        past :attr:`STALL_WATCHDOG` attempts raises
        :class:`~repro.errors.WatchdogTimeoutError`.  The consumer
        re-checksums what arrives, so in-flight corruption (or an SEU
        injected since the checksum was encoded) raises
        :class:`~repro.errors.FaultDetectedError`; otherwise ``block``
        holds what arrived.
        """
        item = chan.hop(block, self.STALL_WATCHDOG, WatchdogTimeoutError)
        if crc32_array(item) != crc:
            raise fault_hooks.report_detection(
                FaultDetectedError(
                    f"per-block checksum mismatch after {chan.name!r}: "
                    "block data corrupted in flight or at rest"
                )
            )
        if item is not block:
            block[...] = item  # the consumer computes on what arrived


#: Re-exported for introspection/tests: the plan types the engine executes.
__all__ = [
    "AcceleratorStats",
    "FPGAAccelerator",
    "BlockPlan",
    "PassPlan",
    "get_pass_plan",
]
