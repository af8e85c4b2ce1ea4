"""Fault-tolerant multi-device stencil scheduler with degraded-mode execution.

StencilFlow treats large stencil programs as schedules over a *fleet* of
spatial devices and SASA schedules many independent PE groups; both imply
that when long jobs and transient faults overlap, the failure domain
should be a pass or a device — never the whole job queue.  This module
puts a resilient scheduler in front of a fleet of simulated
:class:`~repro.runtime.host.HostDevice` boards:

* **dispatch** — each job is placed on the healthy device with the
  smallest simulated clock (deterministic load-balancing; ties
  break by device index).  There is one job type: a
  :class:`StencilJob` is one or more same-shape grids that run as one
  launch over one slab on one device; a single grid is a batch of one,
  so every job takes one path (:meth:`StencilScheduler.execute_job`)
  and returns one :class:`JobResult` with a slot per grid.  A job
  charges the time it spent to its device's clock whether it
  completes or fails;
* **synchronous execution** — the scheduler holds no queue of its own:
  :meth:`StencilScheduler.execute_job` runs one job to completion on
  the caller's thread and keeps nothing keyed by job id between
  calls.  Admission, queueing and overload shedding live in the
  serving layer (:class:`~repro.runtime.service.StencilService`);
* **health tracking & quarantine** — each device tracks the fault rate
  over a sliding window of recent jobs; a device whose rate exceeds the
  threshold is quarantined, and re-admitted only after a *probe* job
  (a tiny known-good stencil run) completes fault-free;
* **per-job deadlines** — enforced on the simulated clock: a job whose
  modeled time already exceeds its deadline fails fast, and a job whose
  retries/rollbacks push it past the budget fails typed
  (:class:`~repro.errors.DeadlineExceededError`) with the late result
  discarded — never silently late;
* **degraded mode** — a per-device circuit breaker around the native
  pass driver: repeated faulted kernels on a device (or a compile
  failure when ``engine="native"`` is requested) trip the device to
  the conservative NumPy engine, so its jobs complete slower rather
  than fail.  All engines are bit-identical, so degradation never
  changes results;
* **re-dispatch** — a job that fails with a transient fault on one
  device is retried once on a different device before its typed failure
  is reported.  Fault isolation inside a job is per grid: an SEU in one
  grid fails only that slot (status ``"partial"``, never re-dispatched),
  and a launch in which no grid completed is a launch fault that the
  device's command queue retries.

The end-to-end invariant (pinned by the chaos harness,
``tests/faults/test_chaos.py``): every admitted job either completes
bit-identical to :func:`repro.core.reference_run` or fails with a typed
error — never silently wrong.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.accelerator import ENGINES, FLOOR_ENGINE, check_engine
from repro.core.blocking import BlockingConfig
from repro.core.grid import make_grid
from repro.core.stencil import StencilSpec
from repro.errors import (
    ConfigurationError,
    DeadlineExceededError,
    FaultDetectedError,
)
from repro.faults import hooks as fault_hooks
from repro.runtime.artifacts import ArtifactCache
from repro.runtime.checkpoint import CheckpointPolicy
from repro.runtime.host import (
    EVENT_LOG,
    Buffer,
    CommandQueue,
    HostDevice,
    RetryPolicy,
    StencilProgram,
)


@dataclass(frozen=True)
class StencilJob:
    """One unit of scheduled work: same-shape grids plus their SLOs.

    All ``grids`` (one or more) share one ``(spec, config, shape,
    iterations)`` workload and run as one launch over one slab, so the
    device pays one launch for the lot; a single grid is a batch of one
    (a ``grid[None]`` view, no copy).  SLO semantics are per *job*:
    ``deadline_s`` is a time budget for the whole job on the executing
    device's simulated clock (transfers + kernel + recovery overheads;
    a job is never partially late); ``checkpoint`` arms pass-granular
    recovery for the kernel (a
    :class:`~repro.runtime.checkpoint.CheckpointPolicy` or int ``k``),
    snapshotting the whole slab, so a rollback replays every grid of the
    affected passes; ``watchdog_factor`` sets the kernel watchdog to
    ``factor * modeled_time``.  ``engine`` overrides the scheduler's
    preferred engine for this job only (the serving layer's graceful-
    degradation ladder pins hard-overloaded jobs to ``"numpy"``); a
    tripped device breaker still wins and forces ``"numpy"``.
    ``config=None`` defers the blocking config to the empirical
    autotuner's persistent plan-selection cache (resolved once at
    admission; see :mod:`repro.runtime.autotune`).  Fault isolation is
    per *grid*: an SEU detected inside one grid fails only that entry of
    the :class:`JobResult` (a launch in which no grid completed is a
    launch fault, retried by the device's command queue).

    The grids are read when the job runs, not when it is built; a lone
    C-contiguous float32 grid becomes the device's source buffer without
    a copy (the kernel only reads it).  The caller must not write
    ``grids`` until the job's result is back.
    """

    job_id: str
    spec: StencilSpec
    config: BlockingConfig | None
    grids: tuple[np.ndarray, ...] = field(repr=False)
    iterations: int = 1
    deadline_s: float | None = None
    checkpoint: CheckpointPolicy | int | None = None
    watchdog_factor: float | None = None
    engine: str | None = None

    def __post_init__(self) -> None:
        if self.engine is not None:
            check_engine(self.engine)
        if self.iterations < 1:
            raise ConfigurationError(
                f"iterations must be >= 1, got {self.iterations}"
            )
        if self.deadline_s is not None and not (
            math.isfinite(self.deadline_s) and self.deadline_s > 0
        ):
            raise ConfigurationError(
                f"deadline_s must be finite and > 0, got {self.deadline_s}",
                param="deadline_s", value=self.deadline_s,
                constraint="math.isfinite(deadline_s) and deadline_s > 0",
            )
        if self.watchdog_factor is not None and self.watchdog_factor <= 0:
            raise ConfigurationError(
                f"watchdog_factor must be > 0, got {self.watchdog_factor}"
            )
        if len(self.grids) < 1:
            raise ConfigurationError(
                "a job needs at least one grid",
                param="grids", value=0, constraint="len(grids) >= 1",
            )
        shape = tuple(self.grids[0].shape)
        for g, grid in enumerate(self.grids):
            if tuple(grid.shape) != shape:
                raise ConfigurationError(
                    f"grid {g} has shape {tuple(grid.shape)}, job is "
                    f"{shape}",
                    param="grids", value=tuple(grid.shape),
                    constraint=f"every grid shape == {shape}",
                )


@dataclass(frozen=True)
class JobResult:
    """Outcome of one admitted job, one slot per grid.

    ``status`` is ``"completed"`` (every grid's bit-exact result
    present), ``"partial"`` (some grids failed per-grid: their
    ``results`` slot is ``None`` and ``error_types``/``errors`` name the
    typed per-grid failure) or ``"failed"`` (the whole job failed: every
    slot carries the same job-level error).  Partial jobs are final: the
    scheduler never re-dispatches a job for per-grid faults; callers
    retry failed entries as jobs of their own if they want another
    attempt.  A one-grid job is completed or failed, never partial, and
    reads as one result through :attr:`result`, :attr:`error_type` and
    :attr:`error`.  ``devices`` is the one-entry tuple of the executing
    device and ``engines`` what it actually ran (``"numpy"`` once its
    circuit breaker tripped).  ``dispatches`` counts placements tried.
    """

    job_id: str
    status: str
    devices: tuple[int, ...]
    engines: tuple[str, ...]
    results: tuple[np.ndarray | None, ...] = field(repr=False, default=())
    error_types: tuple[str | None, ...] = ()
    errors: tuple[str | None, ...] = ()
    elapsed_s: float = 0.0
    attempts: int = 0
    dispatches: int = 1
    rollbacks: int = 0
    replayed_passes: int = 0

    @property
    def n_grids(self) -> int:
        return len(self.results)

    @property
    def n_failed(self) -> int:
        return sum(1 for e in self.error_types if e is not None)

    def _only(self, slots: tuple):
        if len(slots) != 1:
            raise ConfigurationError(
                f"job {self.job_id!r} has {len(slots)} grids; read its "
                "per-grid results, error_types and errors",
                param="n_grids", value=len(slots), constraint="n_grids == 1",
            )
        return slots[0]

    @property
    def result(self) -> np.ndarray | None:
        """A one-grid job's result (``None`` unless completed)."""
        return self._only(self.results)

    @property
    def error_type(self) -> str | None:
        """A one-grid job's typed failure (``None`` when completed)."""
        return self._only(self.error_types)

    @property
    def error(self) -> str | None:
        """A one-grid job's failure message (``None`` when completed)."""
        return self._only(self.errors)


#: A device whose fault rate over its last :data:`HEALTH_WINDOW` jobs
#: exceeds :data:`QUARANTINE_THRESHOLD` is quarantined, once it has run
#: at least :data:`MIN_HEALTH_SAMPLES` of them.
QUARANTINE_THRESHOLD = 0.5
HEALTH_WINDOW = 4
MIN_HEALTH_SAMPLES = 2

#: Jobs the rest of the fleet completes before a quarantined device is
#: probed for re-admission.  With every device quarantined, probes run
#: at once: the scheduler always makes progress.
PROBE_AFTER_JOBS = 2

#: Devices tried per job before its failure is final.
MAX_DISPATCHES = 2

#: Job failures never re-dispatched: an identical board models the
#: identical time and rejects the identical configuration.
FINAL_ERRORS = frozenset({"DeadlineExceededError", "ConfigurationError"})

#: Consecutive faulted launches that trip a device's breaker.
BREAKER_THRESHOLD = 2


class CircuitBreaker:
    """Per-device breaker that degrades the execution engine.

    Counts *consecutive* kernel launches that needed fault recovery
    (queue retries or checkpoint rollbacks) or failed outright; at
    :data:`BREAKER_THRESHOLD` it trips and the device pins its engine to
    the conservative pure-NumPy path.  A native compile failure trips it
    immediately.  Tripping is one-way for the device's lifetime — a
    board that keeps corrupting its fast path does not get it back.
    """

    def __init__(self) -> None:
        self.consecutive_faults = 0
        self.tripped = False
        self.reason: str | None = None

    def trip(self, reason: str) -> None:
        if not self.tripped:
            self.tripped = True
            self.reason = reason

    def record_fault(self) -> None:
        self.consecutive_faults += 1
        if self.consecutive_faults >= BREAKER_THRESHOLD:
            self.trip(
                f"{self.consecutive_faults} consecutive faulted kernel launches"
            )

    def record_success(self) -> None:
        self.consecutive_faults = 0


class _Worker:
    """Scheduler-internal per-device state: queue, health, breaker."""

    def __init__(
        self,
        index: int,
        device: HostDevice,
        retry_policy: RetryPolicy | None,
    ):
        self.index = index
        self.device = device
        self.queue = CommandQueue(device, retry_policy=retry_policy)
        self.breaker = CircuitBreaker()
        self.window: deque[bool] = deque(maxlen=HEALTH_WINDOW)
        self.jobs_run = 0
        self.quarantined = False
        self.quarantined_at_job: int | None = None  # global job counter
        #: The most recent :data:`~repro.runtime.host.EVENT_LOG` lines.
        self.events: deque[str] = deque(maxlen=EVENT_LOG)

    def engine(self, preferred: str) -> str:
        return FLOOR_ENGINE if self.breaker.tripped else preferred

    def fault_rate(self) -> float:
        if not self.window:
            return 0.0
        return sum(self.window) / len(self.window)

    def log(self, message: str) -> None:
        self.events.append(f"device {self.index}: {message}")


def _by_load(worker: _Worker) -> tuple[float, int]:
    """Placement order: smallest simulated clock first, ties by index."""
    return worker.queue.clock_s, worker.index


#: Probe workload for re-admission: tiny, known-good, fast.
_PROBE_SPEC_ARGS = (2, 1)
_PROBE_CONFIG = dict(dims=2, radius=1, bsize_x=32, parvec=4, partime=2)
_PROBE_SHAPE = (8, 64)
_PROBE_ITERATIONS = 2


class StencilScheduler:
    """Run stencil jobs one at a time across N simulated devices.

    Parameters
    ----------
    devices:
        Either a device count (each a default
        :class:`~repro.runtime.host.HostDevice`) or an explicit list.
    retry_policy:
        Queue-level retry policy shared by all devices.
    engine:
        Preferred execution engine for healthy devices, one of
        :data:`~repro.core.accelerator.ENGINES` (``"auto"``,
        ``"native"`` or ``"numpy"``); a device whose circuit breaker
        has tripped always runs ``"numpy"``.
    default_checkpoint:
        Checkpoint policy applied to jobs that do not carry their own.
    program_cache:
        A shared :class:`~repro.runtime.artifacts.ArtifactCache` of warm
        programs (the serving layer passes its own so coalesced jobs
        reuse one compiled artifact).  When omitted the scheduler owns a
        private cache and closes it in :meth:`close`; a caller-supplied
        cache stays the caller's to close.
    """

    def __init__(
        self,
        devices: int | list[HostDevice] = 2,
        *,
        retry_policy: RetryPolicy | None = None,
        engine: str = "auto",
        default_checkpoint: CheckpointPolicy | int | None = None,
        program_cache: ArtifactCache | None = None,
    ):
        if isinstance(devices, int):
            if devices < 1:
                raise ConfigurationError(
                    f"device count must be >= 1, got {devices}"
                )
            devices = [HostDevice() for _ in range(devices)]
        if not devices:
            raise ConfigurationError("scheduler needs at least one device")
        check_engine(engine)
        self.engine = engine
        self.default_checkpoint = default_checkpoint
        self.workers = [
            _Worker(i, dev, retry_policy) for i, dev in enumerate(devices)
        ]
        self._jobs_completed = 0
        self._probe_grid = make_grid(_PROBE_SHAPE, "mixed", seed=3)
        # explicit None test: an *empty* shared cache is falsy (__len__)
        self.program_cache = (
            program_cache if program_cache is not None else ArtifactCache()
        )
        self._owns_cache = program_cache is None
        self._released_boards: set[str] = set()
        self._closed = False

    # -- admission --------------------------------------------------------- #

    def _resolve_config(self, job: StencilJob) -> StencilJob:
        """Fill in ``config=None`` from the plan-selection cache.

        A job submitted without a blocking config takes whatever the
        empirical autotuner (``repro.runtime.autotune``) picked for this
        ``(stencil, shape, engine, cpu)`` — a persisted winner on a warm
        key, a short shortlist-and-measure on a cold one, the analytical
        model under ``REPRO_NO_AUTOTUNE``.  Resolution happens once,
        before placement, so every re-dispatch sees a pinned config.
        """
        if job.config is not None:
            return job
        from repro.runtime.autotune import resolve_config

        config = resolve_config(
            job.spec,
            job.grids[0].shape,
            iterations=job.iterations,
            engine=job.engine or self.engine,
        )
        return replace(job, config=config)

    # -- dispatch ---------------------------------------------------------- #

    def execute_job(self, job: StencilJob) -> JobResult:
        """Run one job to completion now, on the caller's thread.

        The serving layer's dispatch loop calls this: admission,
        fair-queueing and wall-clock deadlines live in the service,
        while device choice, re-dispatch, health, quarantine and
        breakers stay here.
        """
        if self._closed:
            raise ConfigurationError(
                "scheduler is closed",
                param="closed",
                value=True,
                constraint="execute_job() requires an open scheduler",
            )
        return self._dispatch(self._resolve_config(job))

    #: Alias of :meth:`execute_job`, kept because ``perfbench/ledger.py``
    #: wraps both names.
    execute_batch = execute_job

    def _dispatch(self, job: StencilJob) -> JobResult:
        """Place a job, re-dispatching a whole-job transient failure.

        A failed job is tried on another device until it completes or
        has used :data:`MAX_DISPATCHES` devices; a :data:`FINAL_ERRORS`
        failure is never re-dispatched, and neither is a partial job (its
        per-grid failures are final).
        """
        dispatches = 0
        tried: frozenset[int] = frozenset()
        while True:
            worker = self._pick_worker(tried)
            result = self._execute(worker, job, dispatches + 1)
            tried = tried | {worker.index}
            dispatches = result.dispatches
            if not (
                result.status == "failed"
                and result.error_types[0] not in FINAL_ERRORS
                and dispatches < MAX_DISPATCHES
                and any(w.index not in tried for w in self.workers)
            ):
                self._jobs_completed += 1
                return result

    def _pick_worker(self, excluded: frozenset[int]) -> _Worker:
        """The device to run on: the healthy one with the smallest clock.

        Quarantined devices are probed when due, and all of them at once
        when no healthy candidate remains.  A device still quarantined
        is picked only when no healthy one is left, and an ``excluded``
        one (already tried by this job) only when nothing else is left
        — the scheduler never deadlocks; jobs then either succeed
        (faults are transient) or fail typed.
        """

        def candidates(quarantined: bool) -> list[_Worker]:
            return [
                w
                for w in self.workers
                if w.quarantined == quarantined and w.index not in excluded
            ]

        self._probe_due_workers(force=False)
        healthy = candidates(False)
        if not healthy:
            self._probe_due_workers(force=True)
            healthy = candidates(False)
        return min(healthy or candidates(True) or self.workers, key=_by_load)

    # -- deadlines ---------------------------------------------------------- #

    @staticmethod
    def _check_modeled(job: StencilJob, estimate_s: float) -> None:
        """Fail fast: raise :class:`DeadlineExceededError` when the
        modeled time of ``job`` already exceeds its deadline."""
        if job.deadline_s is not None and estimate_s > job.deadline_s:
            raise DeadlineExceededError(
                f"job {job.job_id!r}: modeled time {estimate_s:.4f} s "
                f"exceeds deadline {job.deadline_s:.4f} s; not dispatched"
            )

    @staticmethod
    def _missed_deadline(
        job: StencilJob, elapsed_s: float, worker: _Worker
    ) -> DeadlineExceededError | None:
        """The typed failure of a job that ran past its deadline (its
        result is discarded, and ``worker`` logs it), or ``None`` when it
        finished in time."""
        if job.deadline_s is None or elapsed_s <= job.deadline_s:
            return None
        worker.log(
            f"job {job.job_id!r} missed deadline "
            f"({elapsed_s:.4f} s > {job.deadline_s:.4f} s); result discarded"
        )
        return DeadlineExceededError(
            f"job {job.job_id!r}: elapsed {elapsed_s:.4f} s "
            f"exceeds deadline {job.deadline_s:.4f} s"
        )

    # -- health / quarantine ----------------------------------------------- #

    def _settle(self, worker: _Worker, faulty: bool) -> None:
        """Charge one finished job to its device's breaker and health."""
        if faulty:
            worker.breaker.record_fault()
            self._audit_degraded_pools()
        else:
            worker.breaker.record_success()
        self._record_health(worker, faulty=faulty)

    def _record_health(self, worker: _Worker, faulty: bool) -> None:
        worker.window.append(faulty)
        worker.jobs_run += 1
        if (
            not worker.quarantined
            and len(worker.window) >= MIN_HEALTH_SAMPLES
            and worker.fault_rate() > QUARANTINE_THRESHOLD
        ):
            worker.quarantined = True
            worker.quarantined_at_job = self._jobs_completed
            worker.log(
                f"quarantined (fault rate {worker.fault_rate():.0%} over "
                f"last {len(worker.window)} jobs)"
            )

    def _probe_due_workers(self, force: bool) -> None:
        for worker in self.workers:
            if not worker.quarantined:
                continue
            due = (
                force
                or self._jobs_completed
                >= (worker.quarantined_at_job or 0) + PROBE_AFTER_JOBS
            )
            if due:
                self._probe(worker)

    def _probe(self, worker: _Worker) -> None:
        """Re-admission probe: a tiny known-good run on the sick device."""
        spec = StencilSpec.star(*_PROBE_SPEC_ARGS)
        config = BlockingConfig(**_PROBE_CONFIG)
        try:
            program = self._build_program(worker, spec, config)
            src = Buffer(self._probe_grid.nbytes)
            dst = Buffer(self._probe_grid.nbytes)
            worker.queue.enqueue_write_buffer(src, self._probe_grid)
            event = worker.queue.enqueue_kernel(
                program, src, dst, _PROBE_ITERATIONS
            )
            worker.queue.enqueue_read_buffer(dst)
        except FaultDetectedError as err:
            # still sick: stay quarantined, push the next probe out
            worker.quarantined_at_job = self._jobs_completed
            worker.log(f"probe failed ({type(err).__name__}); stays quarantined")
            return
        if event.attempts > 1:
            worker.quarantined_at_job = self._jobs_completed
            worker.log("probe needed retries; stays quarantined")
            return
        worker.quarantined = False
        worker.quarantined_at_job = None
        worker.window.clear()
        worker.log("probe clean; re-admitted")

    # -- execution ---------------------------------------------------------- #

    def _build_program(
        self,
        worker: _Worker,
        spec: StencilSpec,
        config: BlockingConfig,
        preferred: str | None = None,
    ) -> StencilProgram:
        """Fetch (or build) the worker's program from the artifact cache.

        Programs are warm and shared: every job with the same
        ``(kernel, config, board, engine)`` key reuses one cached
        :class:`StencilProgram` — and therefore one compiled library and
        one live worker pool.  A native compile failure
        (``engine="native"`` requested but no toolchain / failed build)
        trips the breaker and degrades to the NumPy engine instead of
        failing the job.
        """
        engine = worker.engine(preferred or self.engine)
        if engine == "native":
            try:
                return self.program_cache.get(
                    spec, config, worker.device.board, engine=engine
                )
            except ConfigurationError as err:
                worker.breaker.trip(f"{engine} engine unavailable: {err}")
                worker.log(
                    f"degraded to numpy engine ({engine} compile failure)"
                )
                self._audit_degraded_pools()
                engine = FLOOR_ENGINE
        return self.program_cache.get(
            spec, config, worker.device.board, engine=engine
        )

    def _audit_degraded_pools(self) -> None:
        """Release fast-path pools no degraded board will ever use again.

        Breakers are one-way: once every device of a board type has
        tripped to the NumPy engine, the cached native programs for that
        board are dead weight whose pthread pools would otherwise linger
        until garbage collection.  Close and drop them now (once per
        board) so the degraded steady state holds no native resources.
        """
        boards: dict[str, list[_Worker]] = {}
        for w in self.workers:
            boards.setdefault(w.device.board.name, []).append(w)
        for name, group in boards.items():
            if name in self._released_boards:
                continue
            if all(w.breaker.tripped for w in group):
                closed = self.program_cache.release_engines(
                    name, tuple(e for e in ENGINES if e != FLOOR_ENGINE)
                )
                self._released_boards.add(name)
                group[0].log(
                    f"board {name!r} fully degraded: released "
                    f"{closed} cached fast-path program(s)"
                )

    def _execute(
        self, worker: _Worker, job: StencilJob, dispatches: int
    ) -> JobResult:
        """One dispatch of ``job`` on ``worker``: one slab launch."""
        inj = fault_hooks.ACTIVE
        detections_before = len(inj.detections) if inj is not None else 0
        queue = worker.queue
        start_s = queue.clock_s
        preferred = job.engine or self.engine
        engine_used = worker.engine(preferred)
        n_grids = len(job.grids)

        def _failed(err: BaseException, **counts) -> JobResult:
            # whole-job failure: every slot carries the same typed error
            return JobResult(
                job_id=job.job_id,
                status="failed",
                devices=(worker.index,),
                engines=(engine_used,),
                results=(None,) * n_grids,
                error_types=(type(err).__name__,) * n_grids,
                errors=(str(err),) * n_grids,
                elapsed_s=queue.clock_s - start_s,
                dispatches=dispatches,
                **counts,
            )

        try:
            program = self._build_program(
                worker, job.spec, job.config, preferred
            )
        except ConfigurationError as err:
            # a misconfigured job is rejected typed, and is not the
            # device's fault: no health penalty
            return _failed(err)

        grid_shape = tuple(job.grids[0].shape)
        nbytes = n_grids * math.prod(grid_shape) * np.dtype(np.float32).itemsize
        nominal_s = program.batch_kernel_time_s(
            grid_shape, job.iterations, n_grids
        )
        try:
            self._check_modeled(
                job, nominal_s + 2 * queue._transfer_time_s(nbytes)
            )
        except DeadlineExceededError as err:
            return _failed(err)
        watchdog_s = (
            job.watchdog_factor * nominal_s
            if job.watchdog_factor is not None
            else None
        )
        checkpoint = (
            job.checkpoint if job.checkpoint is not None else self.default_checkpoint
        )

        try:
            src = Buffer(nbytes)
            dst = Buffer(nbytes)
            # the write stacks the grids straight into the device slab
            queue.enqueue_write_buffer(src, job.grids)
            event, batch = queue.enqueue_batch_kernel(
                program,
                src,
                dst,
                job.iterations,
                n_grids,
                watchdog_s=watchdog_s,
                checkpoint=checkpoint,
            )
            out_slab, _ = queue.enqueue_read_buffer(dst)
        except FaultDetectedError as err:
            self._settle(worker, faulty=True)
            worker.log(f"job {job.job_id!r} failed: {type(err).__name__}")
            return _failed(err, attempts=queue.retry_policy.max_retries + 1)

        detections_after = len(inj.detections) if inj is not None else 0
        ok = batch.ok
        self._settle(
            worker,
            faulty=(
                detections_after > detections_before
                or event.attempts > 1
                or event.rollbacks > 0
                or not ok
            ),
        )
        counts = dict(
            attempts=event.attempts,
            rollbacks=event.rollbacks,
            replayed_passes=event.replayed_passes,
        )
        elapsed_s = queue.clock_s - start_s
        late = self._missed_deadline(job, elapsed_s, worker)
        if late is not None:
            return _failed(late, **counts)
        return JobResult(
            job_id=job.job_id,
            status="completed" if ok else "partial",
            devices=(worker.index,),
            engines=(engine_used,),
            # views of the one read-back slab: no per-grid copy
            results=tuple(
                out_slab[g] if err is None else None
                for g, err in enumerate(batch.errors)
            ),
            error_types=tuple(
                None if err is None else type(err).__name__
                for err in batch.errors
            ),
            errors=tuple(None if err is None else str(err) for err in batch.errors),
            elapsed_s=elapsed_s,
            dispatches=dispatches,
            **counts,
        )

    # -- lifecycle ---------------------------------------------------------- #

    def close(self) -> None:
        """Shut down: refuse further jobs, release the owned program cache.

        Idempotent.  A shared (caller-supplied) cache is the caller's to
        close — the serving layer closes its cache after its scheduler
        so coalesced programs outlive individual schedulers.  After
        ``close()``, :meth:`execute_job` raises
        :class:`ConfigurationError`.
        """
        if self._closed:
            return
        self._closed = True
        if self._owns_cache:
            self.program_cache.close()

    # -- introspection ------------------------------------------------------ #

    def device_report(self) -> list[dict]:
        """Per-device health snapshot (for reports and tests)."""
        return [
            {
                "device": w.index,
                "jobs_run": w.jobs_run,
                "fault_rate": w.fault_rate(),
                "quarantined": w.quarantined,
                "breaker_tripped": w.breaker.tripped,
                "breaker_reason": w.breaker.reason,
                "clock_s": w.queue.clock_s,
                "events": list(w.events),
            }
            for w in self.workers
        ]
