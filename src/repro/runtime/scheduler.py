"""Fault-tolerant multi-device stencil scheduler with degraded-mode execution.

StencilFlow treats large stencil programs as schedules over a *fleet* of
spatial devices and SASA schedules many independent PE groups; both imply
that when long jobs and transient faults overlap, the failure domain
should be a pass or a device — never the whole job queue.  This module
puts a resilient scheduler in front of a fleet of simulated
:class:`~repro.runtime.host.HostDevice` boards:

* **dispatch** — a FIFO of :class:`StencilJob`\\ s is drained onto the
  healthy device with the smallest simulated clock (deterministic
  load-balancing; ties break by device index);
* **admission control** — the pending queue is bounded:
  :meth:`StencilScheduler.submit` raises
  :class:`~repro.errors.SchedulerSaturatedError` instead of growing
  without bound;
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
  is reported.

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
    DeviceLostError,
    FaultDetectedError,
    SchedulerSaturatedError,
    SchedulerShutdownError,
)
from repro.faults import hooks as fault_hooks
from repro.models.performance import PerformanceModel
from repro.runtime.artifacts import ArtifactCache
from repro.runtime.checkpoint import CheckpointPolicy
from repro.runtime.host import (
    Buffer,
    CommandQueue,
    HostDevice,
    RetryPolicy,
    StencilProgram,
)
from repro.runtime.sharded import ShardedRunner, ShardedStats


@dataclass(frozen=True)
class StencilJob:
    """One unit of scheduled work: a stencil workload plus its SLOs.

    ``deadline_s`` is a per-job time budget on the executing device's
    simulated clock (transfers + kernel + recovery overheads).
    ``checkpoint`` arms pass-granular recovery for the kernel (a
    :class:`~repro.runtime.checkpoint.CheckpointPolicy` or int ``k``);
    ``watchdog_factor`` sets the kernel watchdog to
    ``factor * modeled_time``.  ``engine`` overrides the scheduler's
    preferred engine for this job only (the serving layer's graceful-
    degradation ladder pins hard-overloaded jobs to ``"numpy"``); a
    tripped device breaker still wins and forces ``"numpy"``.
    ``config=None`` defers the blocking config to the empirical
    autotuner's persistent plan-selection cache (resolved once at
    admission; see :mod:`repro.runtime.autotune`).
    """

    job_id: str
    spec: StencilSpec
    config: BlockingConfig | None
    grid: np.ndarray = field(repr=False)
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


@dataclass(frozen=True)
class JobResult:
    """Outcome of one admitted job.

    ``status`` is ``"completed"`` (result present, bit-exact) or
    ``"failed"`` (``error_type``/``error`` name the typed failure; the
    result is ``None``).  ``engine`` records what the executing device
    actually ran (``"numpy"`` once its circuit breaker tripped);
    ``dispatches`` counts devices tried.
    """

    job_id: str
    status: str
    device: int | None
    engine: str | None
    result: np.ndarray | None = field(repr=False, default=None)
    error_type: str | None = None
    error: str | None = None
    elapsed_s: float = 0.0
    attempts: int = 0
    dispatches: int = 1
    rollbacks: int = 0
    replayed_passes: int = 0


@dataclass(frozen=True)
class BatchStencilJob:
    """A batch of same-shape small grids executed as *one* scheduled unit.

    All grids share one ``(spec, config, shape, iterations)`` workload —
    the batch engine packs them into a single slab and the device pays
    one launch for the lot.  SLO semantics are per *batch*:
    ``deadline_s`` budgets the whole batch on the executing device's
    clock (one job, one deadline — a batch is never partially late);
    ``checkpoint`` snapshots the whole slab per ``k`` passes, so a
    rollback replays every grid of the affected passes.  Fault isolation
    stays per *grid*: an SEU detected inside one grid fails only that
    entry of the :class:`BatchJobResult`.
    """

    job_id: str
    spec: StencilSpec
    config: BlockingConfig
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
                "batch needs at least one grid",
                param="grids", value=0, constraint="len(grids) >= 1",
            )
        shape = tuple(self.grids[0].shape)
        for g, grid in enumerate(self.grids):
            if tuple(grid.shape) != shape:
                raise ConfigurationError(
                    f"grid {g} has shape {tuple(grid.shape)}, batch is "
                    f"{shape}",
                    param="grids", value=tuple(grid.shape),
                    constraint=f"every grid shape == {shape}",
                )


@dataclass(frozen=True)
class BatchJobResult:
    """Outcome of one admitted batch.

    ``status`` is ``"completed"`` (every grid present), ``"partial"``
    (some grids failed per-grid — their ``results`` slot is ``None`` and
    ``error_types``/``errors`` name the typed per-grid failure) or
    ``"failed"`` (the whole batch failed: every slot carries the same
    batch-level error).  Partial batches are final — the scheduler never
    re-dispatches a batch for per-grid faults; callers retry individual
    failed entries as single jobs if they want another attempt.
    """

    job_id: str
    status: str
    device: int | None
    engine: str | None
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


@dataclass(frozen=True)
class ShardedJob:
    """One grid decomposed across ``shards`` fleet devices as one unit.

    The scheduler backs each shard with a distinct device (healthy
    boards with the smallest clocks first) and hands the run to the
    sharded execution layer (:class:`~repro.runtime.sharded
    .ShardedRunner`): lockstep compute passes, CRC-guarded halo
    exchange, per-shard tail replay and re-sharding on device loss all
    happen *inside* the job.  ``deadline_s`` budgets the lockstep
    simulated time of the whole run (compute + exchange + recovery
    replay); ``checkpoint`` arms per-shard snapshots; ``engine`` is the
    preferred engine — each shard still starts on its backing worker's
    breaker-resolved engine, so a degraded board contributes a
    conservative shard instead of being excluded.
    """

    job_id: str
    spec: StencilSpec
    config: BlockingConfig
    grid: np.ndarray = field(repr=False)
    iterations: int = 1
    shards: int = 2
    boundary: str = "clamp"
    deadline_s: float | None = None
    checkpoint: CheckpointPolicy | int | None = None
    engine: str | None = None

    def __post_init__(self) -> None:
        if self.engine is not None:
            check_engine(self.engine)
        if self.iterations < 1:
            raise ConfigurationError(
                f"iterations must be >= 1, got {self.iterations}"
            )
        if self.shards < 1:
            raise ConfigurationError(
                f"shards must be >= 1, got {self.shards}",
                param="shards", value=self.shards, constraint="shards >= 1",
            )
        if self.boundary not in ("clamp", "periodic"):
            raise ConfigurationError(
                f"boundary must be 'clamp' or 'periodic', got {self.boundary!r}",
                param="boundary", value=self.boundary,
                constraint="boundary in ('clamp', 'periodic')",
            )
        if self.deadline_s is not None and not (
            math.isfinite(self.deadline_s) and self.deadline_s > 0
        ):
            raise ConfigurationError(
                f"deadline_s must be finite and > 0, got {self.deadline_s}",
                param="deadline_s", value=self.deadline_s,
                constraint="math.isfinite(deadline_s) and deadline_s > 0",
            )


@dataclass(frozen=True)
class ShardedJobResult:
    """Outcome of one sharded job.

    ``devices`` are the backing workers in shard order; ``engines`` are
    the engines each shard *finished* on (``"lost"`` for a board that
    died mid-run — the run itself completed on the survivors).
    ``status`` is ``"completed"`` (bit-exact result present) or
    ``"failed"`` (``error_type``/``error`` name the typed failure).
    ``elapsed_s`` is the lockstep simulated time; ``stats`` carries the
    full :class:`~repro.runtime.sharded.ShardedStats` when the run got
    far enough to produce them.
    """

    job_id: str
    status: str
    devices: tuple[int, ...]
    engines: tuple[str, ...]
    result: np.ndarray | None = field(repr=False, default=None)
    error_type: str | None = None
    error: str | None = None
    elapsed_s: float = 0.0
    rollbacks: int = 0
    replayed_passes: int = 0
    stats: ShardedStats | None = None


class CircuitBreaker:
    """Per-device breaker that degrades the execution engine.

    Counts *consecutive* kernel launches that needed fault recovery
    (queue retries or checkpoint rollbacks) or failed outright; at
    ``threshold`` it trips and the device pins its engine to the
    conservative pure-NumPy path.  A native compile failure trips it
    immediately.  Tripping is one-way for the device's lifetime — a
    board that keeps corrupting its fast path does not get it back.
    """

    def __init__(self, threshold: int = 2):
        if threshold < 1:
            raise ConfigurationError(f"threshold must be >= 1, got {threshold}")
        self.threshold = threshold
        self.consecutive_faults = 0
        self.tripped = False
        self.reason: str | None = None

    def trip(self, reason: str) -> None:
        if not self.tripped:
            self.tripped = True
            self.reason = reason

    def record_fault(self) -> None:
        self.consecutive_faults += 1
        if self.consecutive_faults >= self.threshold:
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
        breaker_threshold: int,
        health_window: int,
    ):
        self.index = index
        self.device = device
        self.queue = CommandQueue(device, retry_policy=retry_policy)
        self.breaker = CircuitBreaker(breaker_threshold)
        self.window: deque[bool] = deque(maxlen=health_window)
        self.jobs_run = 0
        self.quarantined = False
        self.quarantined_at_job: int | None = None  # global job counter
        self.events: list[str] = []

    def engine(self, preferred: str) -> str:
        return FLOOR_ENGINE if self.breaker.tripped else preferred

    def fault_rate(self) -> float:
        if not self.window:
            return 0.0
        return sum(self.window) / len(self.window)

    def log(self, message: str) -> None:
        self.events.append(f"device {self.index}: {message}")


#: Probe workload for re-admission: tiny, known-good, fast.
_PROBE_SPEC_ARGS = (2, 1)
_PROBE_CONFIG = dict(dims=2, radius=1, bsize_x=32, parvec=4, partime=2)
_PROBE_SHAPE = (8, 64)
_PROBE_ITERATIONS = 2


class StencilScheduler:
    """Dispatch a bounded queue of stencil jobs across N simulated devices.

    Parameters
    ----------
    devices:
        Either a device count (each a default
        :class:`~repro.runtime.host.HostDevice`) or an explicit list.
    retry_policy:
        Queue-level retry policy shared by all devices.
    max_pending:
        Admission bound: :meth:`submit` raises
        :class:`~repro.errors.SchedulerSaturatedError` beyond it.
    engine:
        Preferred execution engine for healthy devices, one of
        :data:`~repro.core.accelerator.ENGINES` (``"auto"``,
        ``"native"`` or ``"numpy"``); a device whose circuit breaker
        has tripped always runs ``"numpy"``.
    quarantine_threshold / health_window / min_health_samples:
        A device is quarantined when its fault rate over the last
        ``health_window`` jobs exceeds the threshold (once at least
        ``min_health_samples`` jobs have been observed).
    probe_after_jobs:
        Number of jobs the rest of the fleet must complete before a
        quarantined device is probed for re-admission.  (If every device
        is quarantined, probes run immediately — the scheduler always
        makes progress.)
    max_dispatches:
        Devices tried per job before its fault failure is final
        (deadline failures are never re-dispatched: an identical board
        models the identical time).
    breaker_threshold:
        Consecutive faulted launches that trip a device's breaker.
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
        max_pending: int = 64,
        engine: str = "auto",
        quarantine_threshold: float = 0.5,
        health_window: int = 4,
        min_health_samples: int = 2,
        probe_after_jobs: int = 2,
        max_dispatches: int = 2,
        breaker_threshold: int = 2,
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
        if max_pending < 1:
            raise ConfigurationError(f"max_pending must be >= 1, got {max_pending}")
        if not 0.0 < quarantine_threshold <= 1.0:
            raise ConfigurationError(
                f"quarantine_threshold must be in (0, 1], got {quarantine_threshold}"
            )
        check_engine(engine)
        if max_dispatches < 1:
            raise ConfigurationError(
                f"max_dispatches must be >= 1, got {max_dispatches}"
            )
        self.engine = engine
        self.max_pending = max_pending
        self.quarantine_threshold = quarantine_threshold
        self.min_health_samples = min_health_samples
        self.probe_after_jobs = probe_after_jobs
        self.max_dispatches = max_dispatches
        self.default_checkpoint = default_checkpoint
        self.workers = [
            _Worker(i, dev, retry_policy, breaker_threshold, health_window)
            for i, dev in enumerate(devices)
        ]
        self._pending: deque[tuple[StencilJob, int, frozenset[int]]] = deque()
        self._submitted: set[str] = set()
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

    def submit(self, job: StencilJob) -> None:
        """Admit a job, or raise :class:`SchedulerSaturatedError`."""
        if self._closed:
            raise ConfigurationError(
                "scheduler is closed",
                param="closed",
                value=True,
                constraint="submit() requires an open scheduler",
            )
        if len(self._pending) >= self.max_pending:
            raise SchedulerSaturatedError(
                f"pending queue is full ({self.max_pending} jobs); "
                "back off and resubmit",
                queued=len(self._pending),
                capacity=self.max_pending,
            )
        if job.job_id in self._submitted:
            raise ConfigurationError(f"duplicate job id {job.job_id!r}")
        job = self._resolve_config(job)
        self._submitted.add(job.job_id)
        self._pending.append((job, 0, frozenset()))

    def _resolve_config(self, job: StencilJob) -> StencilJob:
        """Fill in ``config=None`` from the plan-selection cache.

        A job submitted without a blocking config takes whatever the
        empirical autotuner (``repro.runtime.autotune``) picked for this
        ``(stencil, shape, engine, cpu)`` — a persisted winner on a warm
        key, a short shortlist-and-measure on a cold one, the analytical
        model under ``REPRO_NO_AUTOTUNE``.  Resolution happens once at
        admission, so every later dispatch/retry sees a pinned config.
        """
        if job.config is not None:
            return job
        from repro.runtime.autotune import resolve_config

        config = resolve_config(
            job.spec,
            job.grid.shape,
            iterations=job.iterations,
            engine=job.engine or self.engine,
        )
        return replace(job, config=config)

    @property
    def pending(self) -> int:
        return len(self._pending)

    # -- dispatch ---------------------------------------------------------- #

    def run_until_idle(self) -> list[JobResult]:
        """Drain the pending queue; returns one result per admitted job."""
        results: list[JobResult] = []
        while self._pending:
            job, dispatches, tried = self._pending.popleft()
            result, retryable, tried_now = self._attempt(job, dispatches, tried)
            if retryable:
                self._pending.appendleft((job, result.dispatches, tried_now))
                continue
            results.append(result)
            self._jobs_completed += 1
        return results

    def execute_job(self, job: StencilJob) -> JobResult:
        """Run one job to completion now, bypassing the pending queue.

        The serving layer's dispatch loop calls this: admission,
        fair-queueing and wall-clock deadlines live in the service,
        while device choice, re-dispatch, health, quarantine and
        breakers stay here with exactly the :meth:`run_until_idle`
        semantics (same re-dispatch predicate, same health accounting).
        """
        if self._closed:
            raise ConfigurationError(
                "scheduler is closed",
                param="closed",
                value=True,
                constraint="execute_job() requires an open scheduler",
            )
        job = self._resolve_config(job)
        if job.job_id in self._submitted:
            raise ConfigurationError(f"duplicate job id {job.job_id!r}")
        self._submitted.add(job.job_id)
        dispatches = 0
        tried: frozenset[int] = frozenset()
        while True:
            result, retryable, tried = self._attempt(job, dispatches, tried)
            if not retryable:
                self._jobs_completed += 1
                return result
            dispatches = result.dispatches

    def execute_batch(self, job: BatchStencilJob) -> BatchJobResult:
        """Run one batch to completion now, bypassing the pending queue.

        Same dispatch machinery as :meth:`execute_job` — device choice,
        health accounting, breakers, re-dispatch on a *whole-batch*
        transient fault (never on per-grid faults or a missed batch
        deadline).  The serving layer coalesces compatible queued
        requests into these.
        """
        if self._closed:
            raise ConfigurationError(
                "scheduler is closed",
                param="closed",
                value=True,
                constraint="execute_batch() requires an open scheduler",
            )
        if job.job_id in self._submitted:
            raise ConfigurationError(f"duplicate job id {job.job_id!r}")
        self._submitted.add(job.job_id)
        dispatches = 0
        tried: frozenset[int] = frozenset()
        while True:
            worker = self._pick_worker(tried)
            result = self._execute_batch(worker, job, dispatches + 1)
            tried = tried | {worker.index}
            retryable = (
                result.status == "failed"
                and result.error_types[0] != "DeadlineExceededError"
                and result.dispatches < self.max_dispatches
                and any(w.index not in tried for w in self.workers)
            )
            if not retryable:
                self._jobs_completed += 1
                return result
            dispatches = result.dispatches

    def execute_sharded(self, job: ShardedJob) -> ShardedJobResult:
        """Run one sharded job across ``job.shards`` fleet devices now.

        Device choice mirrors :meth:`_pick_worker`: the ``shards``
        non-quarantined workers with the smallest clocks back the
        shards, in shard order (quarantined boards fill in only when
        there are not enough healthy ones — the scheduler always makes
        progress).  Each shard starts on its backing worker's
        breaker-resolved engine.  Recovery lives *inside* the run —
        halo retry, per-shard tail replay, engine degradation,
        re-sharding on device loss — so a typed failure here is final:
        the internal redundancy *is* the re-dispatch.  Health and
        breakers are settled per backing worker from the run's
        per-device fault counts, and every participating worker's
        clock advances by the lockstep simulated time.
        """
        if self._closed:
            raise ConfigurationError(
                "scheduler is closed",
                param="closed",
                value=True,
                constraint="execute_sharded() requires an open scheduler",
            )
        if job.job_id in self._submitted:
            raise ConfigurationError(f"duplicate job id {job.job_id!r}")
        if job.shards > len(self.workers):
            raise ConfigurationError(
                f"job {job.job_id!r} wants {job.shards} shards but the "
                f"fleet has {len(self.workers)} device(s)",
                param="shards", value=job.shards,
                constraint="shards <= len(devices)",
            )
        self._submitted.add(job.job_id)

        self._probe_due_workers(force=False)
        by_load = lambda w: (w.queue.clock_s, w.index)  # noqa: E731
        healthy = sorted(
            (w for w in self.workers if not w.quarantined), key=by_load
        )
        if len(healthy) < job.shards:
            self._probe_due_workers(force=True)
            healthy = sorted(
                (w for w in self.workers if not w.quarantined), key=by_load
            )
        pool = healthy + sorted(
            (w for w in self.workers if w.quarantined), key=by_load
        )
        workers = pool[: job.shards]
        devices = tuple(w.index for w in workers)
        preferred = job.engine or self.engine
        engines = tuple(w.engine(preferred) for w in workers)

        def _failed(
            err: BaseException,
            engines_now: tuple[str, ...] = engines,
            elapsed_s: float = 0.0,
        ) -> ShardedJobResult:
            return ShardedJobResult(
                job_id=job.job_id,
                status="failed",
                devices=devices,
                engines=engines_now,
                error_type=type(err).__name__,
                error=str(err),
                elapsed_s=elapsed_s,
            )

        grid = np.ascontiguousarray(job.grid, dtype=np.float32)
        if job.deadline_s is not None:
            estimate_s = PerformanceModel(workers[0].device.board).predict_sharded(
                job.spec, job.config, grid.shape, job.iterations,
                shards=job.shards, boundary=job.boundary,
            ).time_s
            if estimate_s > job.deadline_s:
                self._jobs_completed += 1
                return _failed(
                    DeadlineExceededError(
                        f"sharded job {job.job_id!r}: modeled time "
                        f"{estimate_s:.4f} s exceeds deadline "
                        f"{job.deadline_s:.4f} s; not dispatched"
                    )
                )
        checkpoint = (
            job.checkpoint if job.checkpoint is not None else self.default_checkpoint
        )

        try:
            runner = ShardedRunner(
                job.spec,
                job.config,
                job.boundary,
                shards=job.shards,
                engines=list(engines),
                checkpoint=checkpoint,
            )
        except ConfigurationError as err:
            # a misconfigured job is rejected typed, and is not the
            # devices' fault: no health penalty
            self._jobs_completed += 1
            return _failed(err)

        def _settle(fault_counts: tuple[int, ...]) -> None:
            for w, n_faults in zip(workers, fault_counts):
                if n_faults > 0:
                    w.breaker.record_fault()
                    self._audit_degraded_pools()
                else:
                    w.breaker.record_success()
                self._record_health(w, faulty=n_faults > 0)

        try:
            sharded = runner.run(grid, job.iterations)
        except (FaultDetectedError, DeviceLostError, ConfigurationError) as err:
            _settle(runner.device_faults)
            engines_now = runner.engines
            runner.close()
            for w in workers:
                w.log(
                    f"sharded job {job.job_id!r} failed: {type(err).__name__}"
                )
            self._jobs_completed += 1
            return _failed(err, engines_now=engines_now)
        runner.close()

        stats = sharded.stats
        _settle(stats.device_faults)
        elapsed_s = stats.sim_time_s
        for w in workers:
            w.queue.clock_s += elapsed_s  # lockstep: every board is held
        self._jobs_completed += 1
        if job.deadline_s is not None and elapsed_s > job.deadline_s:
            for w in workers:
                w.log(
                    f"sharded job {job.job_id!r} missed deadline "
                    f"({elapsed_s:.4f} s > {job.deadline_s:.4f} s); "
                    "result discarded"
                )
            return ShardedJobResult(
                job_id=job.job_id,
                status="failed",
                devices=devices,
                engines=stats.engines,
                error_type="DeadlineExceededError",
                error=(
                    f"sharded job {job.job_id!r}: elapsed {elapsed_s:.4f} s "
                    f"exceeds deadline {job.deadline_s:.4f} s"
                ),
                elapsed_s=elapsed_s,
                rollbacks=stats.rollbacks,
                replayed_passes=stats.replayed_passes,
                stats=stats,
            )
        return ShardedJobResult(
            job_id=job.job_id,
            status="completed",
            devices=devices,
            engines=stats.engines,
            result=sharded.grid,
            elapsed_s=elapsed_s,
            rollbacks=stats.rollbacks,
            replayed_passes=stats.replayed_passes,
            stats=stats,
        )

    def _attempt(
        self, job: StencilJob, dispatches: int, tried: frozenset[int]
    ) -> tuple[JobResult, bool, frozenset[int]]:
        """One dispatch attempt plus the shared re-dispatch predicate."""
        worker = self._pick_worker(tried)
        result = self._execute(worker, job, dispatches + 1)
        tried_now = tried | {worker.index}
        retryable = (
            result.status == "failed"
            and result.error_type != "DeadlineExceededError"
            and result.dispatches < self.max_dispatches
            and any(w.index not in tried_now for w in self.workers)
        )
        return result, retryable, tried_now

    def _pick_worker(self, excluded: frozenset[int]) -> _Worker:
        """Healthy device with the smallest clock; probes quarantined ones.

        Falls back to quarantined devices (probing them first) when no
        healthy one is available — the scheduler never deadlocks; jobs
        then either succeed (faults are transient) or fail typed.
        """
        self._probe_due_workers(force=False)
        candidates = [
            w
            for w in self.workers
            if not w.quarantined and w.index not in excluded
        ]
        if not candidates:
            self._probe_due_workers(force=True)
            candidates = [
                w
                for w in self.workers
                if not w.quarantined and w.index not in excluded
            ]
        if not candidates:
            candidates = [w for w in self.workers if w.index not in excluded]
        if not candidates:
            candidates = list(self.workers)
        return min(candidates, key=lambda w: (w.queue.clock_s, w.index))

    # -- health / quarantine ----------------------------------------------- #

    def _record_health(self, worker: _Worker, faulty: bool) -> None:
        worker.window.append(faulty)
        worker.jobs_run += 1
        if (
            not worker.quarantined
            and len(worker.window) >= self.min_health_samples
            and worker.fault_rate() > self.quarantine_threshold
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
                >= (worker.quarantined_at_job or 0) + self.probe_after_jobs
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
        inj = fault_hooks.ACTIVE
        detections_before = len(inj.detections) if inj is not None else 0
        queue = worker.queue
        start_s = queue.clock_s
        preferred = job.engine or self.engine
        engine_used = worker.engine(preferred)

        def _failed(err: BaseException, attempts: int = 0) -> JobResult:
            return JobResult(
                job_id=job.job_id,
                status="failed",
                device=worker.index,
                engine=engine_used,
                error_type=type(err).__name__,
                error=str(err),
                elapsed_s=queue.clock_s - start_s,
                attempts=attempts,
                dispatches=dispatches,
            )

        try:
            program = self._build_program(
                worker, job.spec, job.config, preferred
            )
        except ConfigurationError as err:
            # a misconfigured job is rejected typed, and is not the
            # device's fault: no health penalty
            return _failed(err)

        grid = np.ascontiguousarray(job.grid, dtype=np.float32)
        nominal_s = program.kernel_time_s(grid.shape, job.iterations)
        estimate_s = nominal_s + 2 * queue._transfer_time_s(grid.nbytes)
        if job.deadline_s is not None and estimate_s > job.deadline_s:
            return _failed(
                DeadlineExceededError(
                    f"job {job.job_id!r}: modeled time {estimate_s:.4f} s "
                    f"exceeds deadline {job.deadline_s:.4f} s; not dispatched"
                )
            )
        watchdog_s = (
            job.watchdog_factor * nominal_s
            if job.watchdog_factor is not None
            else None
        )
        checkpoint = (
            job.checkpoint if job.checkpoint is not None else self.default_checkpoint
        )

        try:
            src = Buffer(grid.nbytes)
            dst = Buffer(grid.nbytes)
            queue.enqueue_write_buffer(src, grid)
            event = queue.enqueue_kernel(
                program,
                src,
                dst,
                job.iterations,
                watchdog_s=watchdog_s,
                checkpoint=checkpoint,
            )
            out, _ = queue.enqueue_read_buffer(dst)
        except FaultDetectedError as err:
            worker.breaker.record_fault()
            self._audit_degraded_pools()
            self._record_health(worker, faulty=True)
            worker.log(f"job {job.job_id!r} failed: {type(err).__name__}")
            return _failed(err, attempts=queue.retry_policy.max_retries + 1)

        detections_after = len(inj.detections) if inj is not None else 0
        faulty = (
            detections_after > detections_before
            or event.attempts > 1
            or event.rollbacks > 0
        )
        if faulty:
            worker.breaker.record_fault()
            self._audit_degraded_pools()
        else:
            worker.breaker.record_success()
        self._record_health(worker, faulty=faulty)

        elapsed_s = queue.clock_s - start_s
        if job.deadline_s is not None and elapsed_s > job.deadline_s:
            worker.log(
                f"job {job.job_id!r} missed deadline "
                f"({elapsed_s:.4f} s > {job.deadline_s:.4f} s); result discarded"
            )
            return JobResult(
                job_id=job.job_id,
                status="failed",
                device=worker.index,
                engine=engine_used,
                error_type="DeadlineExceededError",
                error=(
                    f"job {job.job_id!r}: elapsed {elapsed_s:.4f} s "
                    f"exceeds deadline {job.deadline_s:.4f} s"
                ),
                elapsed_s=elapsed_s,
                attempts=event.attempts,
                dispatches=dispatches,
                rollbacks=event.rollbacks,
                replayed_passes=event.replayed_passes,
            )
        return JobResult(
            job_id=job.job_id,
            status="completed",
            device=worker.index,
            engine=engine_used,
            result=out,
            elapsed_s=elapsed_s,
            attempts=event.attempts,
            dispatches=dispatches,
            rollbacks=event.rollbacks,
            replayed_passes=event.replayed_passes,
        )

    def _execute_batch(
        self, worker: _Worker, job: BatchStencilJob, dispatches: int
    ) -> BatchJobResult:
        inj = fault_hooks.ACTIVE
        detections_before = len(inj.detections) if inj is not None else 0
        queue = worker.queue
        start_s = queue.clock_s
        preferred = job.engine or self.engine
        engine_used = worker.engine(preferred)
        n_grids = len(job.grids)

        def _failed(err: BaseException, attempts: int = 0) -> BatchJobResult:
            # whole-batch failure: every slot carries the same typed error
            return BatchJobResult(
                job_id=job.job_id,
                status="failed",
                device=worker.index,
                engine=engine_used,
                results=(None,) * n_grids,
                error_types=(type(err).__name__,) * n_grids,
                errors=(str(err),) * n_grids,
                elapsed_s=queue.clock_s - start_s,
                attempts=attempts,
                dispatches=dispatches,
            )

        try:
            program = self._build_program(
                worker, job.spec, job.config, preferred
            )
        except ConfigurationError as err:
            # a misconfigured batch is rejected typed, and is not the
            # device's fault: no health penalty
            return _failed(err)

        slab = np.stack(
            [np.asarray(g, dtype=np.float32) for g in job.grids]
        ).astype(np.float32, copy=False)
        grid_shape = slab.shape[1:]
        nominal_s = program.batch_kernel_time_s(
            grid_shape, job.iterations, n_grids
        )
        estimate_s = nominal_s + 2 * queue._transfer_time_s(slab.nbytes)
        if job.deadline_s is not None and estimate_s > job.deadline_s:
            return _failed(
                DeadlineExceededError(
                    f"batch {job.job_id!r}: modeled time {estimate_s:.4f} s "
                    f"exceeds deadline {job.deadline_s:.4f} s; not dispatched"
                )
            )
        watchdog_s = (
            job.watchdog_factor * nominal_s
            if job.watchdog_factor is not None
            else None
        )
        checkpoint = (
            job.checkpoint if job.checkpoint is not None else self.default_checkpoint
        )

        try:
            src = Buffer(slab.nbytes)
            dst = Buffer(slab.nbytes)
            queue.enqueue_write_buffer(src, slab)
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
            worker.breaker.record_fault()
            self._audit_degraded_pools()
            self._record_health(worker, faulty=True)
            worker.log(f"batch {job.job_id!r} failed: {type(err).__name__}")
            return _failed(err, attempts=queue.retry_policy.max_retries + 1)

        detections_after = len(inj.detections) if inj is not None else 0
        faulty = (
            detections_after > detections_before
            or event.attempts > 1
            or event.rollbacks > 0
            or not batch.ok
        )
        if faulty:
            worker.breaker.record_fault()
            self._audit_degraded_pools()
        else:
            worker.breaker.record_success()
        self._record_health(worker, faulty=faulty)

        elapsed_s = queue.clock_s - start_s
        if job.deadline_s is not None and elapsed_s > job.deadline_s:
            worker.log(
                f"batch {job.job_id!r} missed deadline "
                f"({elapsed_s:.4f} s > {job.deadline_s:.4f} s); result discarded"
            )
            err_msg = (
                f"batch {job.job_id!r}: elapsed {elapsed_s:.4f} s "
                f"exceeds deadline {job.deadline_s:.4f} s"
            )
            return BatchJobResult(
                job_id=job.job_id,
                status="failed",
                device=worker.index,
                engine=engine_used,
                results=(None,) * n_grids,
                error_types=("DeadlineExceededError",) * n_grids,
                errors=(err_msg,) * n_grids,
                elapsed_s=elapsed_s,
                attempts=event.attempts,
                dispatches=dispatches,
                rollbacks=event.rollbacks,
                replayed_passes=event.replayed_passes,
            )

        results: list[np.ndarray | None] = []
        error_types: list[str | None] = []
        errors: list[str | None] = []
        for g in range(n_grids):
            err = batch.errors[g]
            if err is None:
                results.append(np.array(out_slab[g]))
                error_types.append(None)
                errors.append(None)
            else:
                results.append(None)
                error_types.append(type(err).__name__)
                errors.append(str(err))
        return BatchJobResult(
            job_id=job.job_id,
            status="completed" if batch.ok else "partial",
            device=worker.index,
            engine=engine_used,
            results=tuple(results),
            error_types=tuple(error_types),
            errors=tuple(errors),
            elapsed_s=elapsed_s,
            attempts=event.attempts,
            dispatches=dispatches,
            rollbacks=event.rollbacks,
            replayed_passes=event.replayed_passes,
        )

    # -- lifecycle ---------------------------------------------------------- #

    def close(self, drain: bool = False) -> list[JobResult]:
        """Shut down: settle pending work, release the owned program cache.

        Jobs still in the pending queue are never silently dropped.
        With ``drain=True`` the queue is drained first
        (:meth:`run_until_idle`) and those results returned; with the
        default ``drain=False`` every pending job is failed typed with
        :class:`~repro.errors.SchedulerShutdownError` and those failure
        results returned.  Idempotent — a second close returns ``[]``.

        A shared (caller-supplied) cache is the caller's to close — the
        serving layer closes its cache after its scheduler so coalesced
        programs outlive individual schedulers.  After ``close()``,
        :meth:`submit` and :meth:`execute_job` raise
        :class:`ConfigurationError`.
        """
        if self._closed:
            return []
        settled: list[JobResult] = []
        if drain:
            settled = self.run_until_idle()
        self._closed = True
        while self._pending:
            job, dispatches, _tried = self._pending.popleft()
            err = SchedulerShutdownError(
                f"scheduler closed with job {job.job_id!r} still pending; "
                "resubmit to a live scheduler or use close(drain=True)"
            )
            settled.append(
                JobResult(
                    job_id=job.job_id,
                    status="failed",
                    device=None,
                    engine=None,
                    error_type=type(err).__name__,
                    error=str(err),
                    dispatches=dispatches,
                )
            )
            self._jobs_completed += 1
        if self._owns_cache:
            self.program_cache.close()
        return settled

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
