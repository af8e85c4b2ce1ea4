"""Overload-resilient multi-tenant serving layer over the scheduler.

:class:`StencilService` is a thread-based front end that many tenants
can call concurrently; a single dispatch thread drains its bounded
weighted-fair queue onto a :class:`~repro.runtime.scheduler
.StencilScheduler`.  The division of labour is deliberate: the
scheduler keeps device choice, re-dispatch, health, quarantine and
breakers on its *simulated* clock; the service adds the four concerns a
shared installation needs on the *wall* clock:

* **admission control & backpressure** — per-tenant token-bucket quotas
  (:class:`TenantQuota`) and a bounded
  :class:`~repro.runtime.admission.WeightedFairQueue`.  Overflow walks
  a ladder: *queue* while there is room, *shed the lowest-priority*
  queued job to admit higher-priority work, then *reject typed*.
  Rejections are :class:`~repro.errors.ShedError` /
  :class:`~repro.errors.QueueTimeoutError` with ``retry_after_s``
  derived from the performance model's drain estimate — clients learn
  exactly how long to back off.
* **deadline propagation & bounded retries** — each request may carry a
  wall-clock ``deadline_s`` (enforced here: late results are discarded)
  and a ``sim_deadline_s`` forwarded to the scheduler's simulated-clock
  enforcement.  Transient failures are re-dispatched with seeded,
  jittered exponential backoff, never past the remaining deadline
  budget.
* **graceful degradation** — under queue pressure dispatch first
  shrinks the checkpoint cadence while keeping the scheduler's engine,
  and under hard pressure (or a fully degraded fleet) also pins jobs to
  the NumPy engine; every downgraded result carries an explicit
  ``degraded`` marker.  All engines are bit-identical, so degradation
  trades latency, never correctness.
* **request coalescing** — jobs sharing ``(kernel, config, board,
  engine)`` reuse one warm program through the service-owned
  :class:`~repro.runtime.artifacts.ArtifactCache` (single-flight
  compilation, LRU-bounded pools); results record whether they rode a
  warm artifact (``coalesced``).
* **batched dispatch** — when the popped request is a *small* grid and
  compatible requests (same spec/config/shape/iterations/checkpoint/
  deadline knobs) are waiting behind it, dispatch pulls up to
  ``coalesce_max_batch`` of them out of the queue and runs the lot as
  one :class:`~repro.runtime.scheduler.BatchStencilJob` — one launch,
  one slab transfer, per-job overhead paid once (``repro.core.batch``).
  Results and typed errors are split back per request (``batched``
  marker); a per-grid transient failure inside an otherwise-healthy
  batch falls back to the single-job retry ladder for that request
  only, so batching never *reduces* anyone's retry budget.

Every admitted request terminates with a :class:`ServiceResult` that is
either bit-exact or carries a typed error — the overload chaos campaign
(``repro.analysis.resilience``, experiment ``overload``) drives offered
load past saturation with faults armed to pin exactly that invariant.
"""

from __future__ import annotations

import itertools
import math
import threading
import time
from collections import deque
from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.accelerator import FLOOR_ENGINE
from repro.core.blocking import BlockingConfig
from repro.core.stencil import StencilSpec
from repro.errors import (
    ConfigurationError,
    QueueTimeoutError,
    SchedulerShutdownError,
    ShedError,
)
from repro.models.performance import PerformanceModel
from repro.runtime.admission import (
    MIN_RETRY_AFTER_S,
    TokenBucket,
    WeightedFairQueue,
)
from repro.runtime.artifacts import ArtifactCache, artifact_key
from repro.runtime.checkpoint import CheckpointPolicy
from repro.runtime.scheduler import (
    BatchStencilJob,
    JobResult,
    StencilJob,
    StencilScheduler,
)

#: Engine pinned at each degrade level.  ``None`` defers to the
#: scheduler's preference: level 1 only shrinks the checkpoint cadence,
#: because a slower engine under queue pressure would add load, and
#: level 2 pins the NumPy floor.
ENGINE_LADDER: tuple[str | None, ...] = (None, None, FLOOR_ENGINE)

#: Error types the service re-dispatches (transient detections).  A
#: deadline, shed or configuration failure is never retried.
RETRYABLE_ERRORS = frozenset({"FaultDetectedError", "WatchdogTimeoutError"})


@dataclass(frozen=True)
class TenantQuota:
    """Per-tenant admission knobs.

    ``rate_per_s=None`` leaves the tenant unmetered (the default);
    ``burst`` is the token-bucket depth; ``weight`` is the tenant's
    dispatch share in the weighted-fair queue (integer, >= 1).
    """

    rate_per_s: float | None = None
    burst: float = 8.0
    weight: int = 1

    def __post_init__(self) -> None:
        if self.weight < 1:
            raise ConfigurationError(
                f"weight must be >= 1, got {self.weight}",
                param="weight",
                value=self.weight,
                constraint="zero-weight tenants would starve",
            )


@dataclass(frozen=True)
class ServicePolicy:
    """Service-level knobs (queue bounds, retries, degradation ladder).

    ``degrade_at`` / ``degrade_hard_at`` are queue-depth fractions: at
    ``degrade_at`` dispatch keeps the scheduler's engine but shrinks the
    checkpoint cadence to ``degraded_checkpoint``; at
    ``degrade_hard_at`` it also pins jobs to the NumPy engine.
    ``queue_timeout_s`` bounds the wall-clock wait of a queued job.
    Retries use seeded, jittered exponential backoff
    (``retry_backoff_s * 2**attempt``, +/- ``retry_jitter``), bounded
    by ``max_retries`` and by the request's remaining deadline budget.

    ``coalesce`` enables batched dispatch: up to ``coalesce_max_batch``
    compatible queued requests ride one batched launch, but only for
    grids of at most ``coalesce_max_cells`` cells — batching exists to
    amortize per-launch overhead, which only dominates small grids.
    ``metrics_window`` bounds the per-tenant latency reservoir (ring of
    the most recent samples) so a long-lived service holds O(window)
    memory per tenant, not O(requests).
    """

    max_queue_depth: int = 64
    queue_timeout_s: float | None = None
    max_retries: int = 1
    retry_backoff_s: float = 0.005
    retry_jitter: float = 0.5
    seed: int = 2018
    degrade_at: float = 0.5
    degrade_hard_at: float = 0.875
    degraded_checkpoint: int = 2
    artifact_capacity: int = 8
    coalesce: bool = True
    coalesce_max_batch: int = 32
    coalesce_max_cells: int = 32**3
    metrics_window: int = 1024

    def __post_init__(self) -> None:
        if self.max_queue_depth < 1:
            raise ConfigurationError(
                f"max_queue_depth must be >= 1, got {self.max_queue_depth}"
            )
        if self.queue_timeout_s is not None and self.queue_timeout_s <= 0:
            raise ConfigurationError(
                f"queue_timeout_s must be > 0, got {self.queue_timeout_s}"
            )
        if self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.retry_backoff_s <= 0:
            raise ConfigurationError(
                f"retry_backoff_s must be > 0, got {self.retry_backoff_s}"
            )
        if not 0.0 <= self.retry_jitter < 1.0:
            raise ConfigurationError(
                f"retry_jitter must be in [0, 1), got {self.retry_jitter}"
            )
        if not 0.0 < self.degrade_at <= self.degrade_hard_at <= 1.0:
            raise ConfigurationError(
                "degradation thresholds must satisfy "
                f"0 < degrade_at <= degrade_hard_at <= 1, got "
                f"{self.degrade_at} / {self.degrade_hard_at}"
            )
        if self.degraded_checkpoint < 1:
            raise ConfigurationError(
                f"degraded_checkpoint must be >= 1, got {self.degraded_checkpoint}"
            )
        if self.coalesce_max_batch < 1:
            raise ConfigurationError(
                f"coalesce_max_batch must be >= 1, got {self.coalesce_max_batch}"
            )
        if self.coalesce_max_cells < 1:
            raise ConfigurationError(
                f"coalesce_max_cells must be >= 1, got {self.coalesce_max_cells}"
            )
        if self.metrics_window < 1:
            raise ConfigurationError(
                f"metrics_window must be >= 1, got {self.metrics_window}"
            )


@dataclass(frozen=True)
class ServiceResult:
    """Terminal outcome of one admitted request.

    ``status`` is ``"completed"`` (bit-exact ``result`` present) or
    ``"failed"`` (``error_type``/``error`` name the typed failure).
    ``degraded`` marks jobs that ran below the service's preferred
    engine tier or with a shrunk checkpoint cadence; ``coalesced``
    marks jobs that reused a warm cached program; ``batched`` marks
    requests that rode a batched launch with ``batch_size`` siblings;
    ``retries`` counts service-level re-dispatches (on top of the
    scheduler's own).
    """

    request_id: str
    tenant: str
    status: str
    result: np.ndarray | None = field(repr=False, default=None)
    job_result: "JobResult | BatchJobResult | None" = field(
        repr=False, default=None
    )
    error_type: str | None = None
    error: str | None = None
    retry_after_s: float | None = None
    degraded: bool = False
    degraded_engine: str | None = None
    coalesced: bool = False
    batched: bool = False
    batch_size: int = 0
    retries: int = 0
    queue_wait_s: float = 0.0
    wall_elapsed_s: float = 0.0


class ServiceTicket:
    """Handle for one in-flight request; fulfilled by the dispatch loop."""

    def __init__(self, request_id: str, tenant: str):
        self.request_id = request_id
        self.tenant = tenant
        self._lock = threading.Lock()
        self._done = threading.Event()
        self._result: ServiceResult | None = None

    def _fulfil(self, result: ServiceResult) -> bool:
        """Record the terminal result exactly once (first writer wins).

        Returns False when the ticket already holds a terminal result —
        a late completion racing a shutdown shed, or vice versa — so
        the caller knows its result was discarded and must not count it
        in metrics.
        """
        with self._lock:
            if self._done.is_set():
                return False
            self._result = result
            self._done.set()
            return True

    @property
    def done(self) -> bool:
        return self._done.is_set()

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the request terminates; True when it has."""
        return self._done.wait(timeout)

    def result(self, timeout: float | None = None) -> ServiceResult:
        """The terminal :class:`ServiceResult` (blocks until available)."""
        if not self._done.wait(timeout):
            raise TimeoutError(
                f"request {self.request_id!r} still in flight after "
                f"{timeout} s"
            )
        with self._lock:
            assert self._result is not None
            return self._result


@dataclass
class _Request:
    """Internal queue payload: the workload plus its admission context."""

    request_id: str
    tenant: str
    spec: StencilSpec
    config: BlockingConfig
    grid: np.ndarray
    iterations: int
    priority: int
    deadline_s: float | None
    sim_deadline_s: float | None
    checkpoint: CheckpointPolicy | int | None
    watchdog_factor: float | None
    admitted_s: float
    ticket: ServiceTicket


class ServiceMetrics:
    """Thread-safe per-tenant counters and latency percentiles.

    Latency/queue-wait samples live in a bounded per-tenant ring of the
    ``window`` most recent observations — a long-lived service holds
    O(window) memory per tenant no matter how many requests it serves,
    and the percentiles become *recent* percentiles (the operationally
    useful kind).  Degenerate sample counts are pinned: zero samples
    emit no percentile keys; a single sample *is* both p50 and p99.
    """

    def __init__(self, window: int = 1024) -> None:
        if window < 1:
            raise ConfigurationError(
                f"window must be >= 1, got {window}",
                param="window",
                value=window,
                constraint="the latency reservoir must hold >= 1 sample",
            )
        self.window = window
        self._lock = threading.Lock()
        self._counters: dict[str, dict[str, int]] = {}
        self._latencies: dict[str, deque[float]] = {}
        self._queue_waits: dict[str, deque[float]] = {}
        self._buckets: dict[str, dict[str, int]] = {}

    def _tenant(self, tenant: str) -> dict[str, int]:
        return self._counters.setdefault(
            tenant,
            {
                "submitted": 0,
                "completed": 0,
                "failed": 0,
                "shed": 0,
                "queue_timeouts": 0,
                "deadline_misses": 0,
                "degraded": 0,
                "coalesced": 0,
                "batched": 0,
                "retries": 0,
            },
        )

    def count(self, tenant: str, key: str, n: int = 1) -> None:
        with self._lock:
            self._tenant(tenant)[key] += n

    def observe_batch(self, bucket: str, size: int) -> None:
        """Record one coalesced launch of ``size`` requests for a bucket.

        Buckets are workload-shaped (one per distinct
        ``(spec, config, shape, iterations)`` coalescing class), so the
        per-bucket ``batch_size`` distribution shows which traffic
        shapes actually amortize launches and which always ride alone.
        """
        with self._lock:
            entry = self._buckets.setdefault(
                bucket,
                {"batches": 0, "requests": 0, "max_batch_size": 0},
            )
            entry["batches"] += 1
            entry["requests"] += size
            entry["max_batch_size"] = max(entry["max_batch_size"], size)

    def bucket_snapshot(self) -> dict[str, dict]:
        """Per-bucket coalescing stats (mean/max ``batch_size``)."""
        with self._lock:
            out: dict[str, dict] = {}
            for bucket, entry in self._buckets.items():
                stats = dict(entry)
                stats["mean_batch_size"] = round(
                    entry["requests"] / entry["batches"], 3
                )
                out[bucket] = stats
            return out

    def observe(self, tenant: str, latency_s: float, queue_wait_s: float) -> None:
        with self._lock:
            self._latencies.setdefault(
                tenant, deque(maxlen=self.window)
            ).append(latency_s)
            self._queue_waits.setdefault(
                tenant, deque(maxlen=self.window)
            ).append(queue_wait_s)

    def snapshot(self) -> dict[str, dict]:
        """Counters plus p50/p99 wall latency (ms) per tenant."""
        with self._lock:
            out: dict[str, dict] = {}
            for tenant, counters in self._counters.items():
                entry: dict = dict(counters)
                lat = self._latencies.get(tenant)
                if lat:
                    if len(lat) == 1:
                        # pinned n=1 semantics: the sample is every
                        # percentile (no interpolation artifacts)
                        entry["p50_ms"] = entry["p99_ms"] = float(lat[0] * 1e3)
                    else:
                        samples = np.fromiter(lat, dtype=np.float64)
                        entry["p50_ms"] = float(np.percentile(samples, 50) * 1e3)
                        entry["p99_ms"] = float(np.percentile(samples, 99) * 1e3)
                    entry["latency_samples"] = len(lat)
                    entry["mean_queue_wait_ms"] = float(
                        np.mean(self._queue_waits[tenant]) * 1e3
                    )
                out[tenant] = entry
            return out


class StencilService:
    """Multi-tenant serving front end over a :class:`StencilScheduler`.

    Parameters
    ----------
    scheduler:
        The backing scheduler, or a device count to build a default
        one.  A scheduler built here shares the service-owned artifact
        cache, so coalesced requests reuse warm programs.
    policy:
        :class:`ServicePolicy` knobs.
    quotas:
        Initial ``{tenant: TenantQuota}``; unknown tenants get the
        default (unmetered, weight 1).  :meth:`register_tenant` adds
        more at runtime.
    start:
        When True (default) the dispatch thread starts immediately;
        tests pass False and call :meth:`run_pending` for deterministic
        single-threaded draining.
    """

    def __init__(
        self,
        scheduler: StencilScheduler | int = 2,
        *,
        policy: ServicePolicy | None = None,
        quotas: dict[str, TenantQuota] | None = None,
        start: bool = True,
    ):
        self.policy = policy or ServicePolicy()
        if isinstance(scheduler, int):
            self.artifacts = ArtifactCache(
                capacity=self.policy.artifact_capacity
            )
            scheduler = StencilScheduler(
                devices=scheduler, program_cache=self.artifacts
            )
        else:
            # adopt the caller's cache so coalescing markers and stats
            # observe the programs the scheduler actually reuses
            self.artifacts = scheduler.program_cache
        self.scheduler = scheduler
        self.metrics = ServiceMetrics(self.policy.metrics_window)
        self._quotas: dict[str, TenantQuota] = dict(quotas or {})
        self._buckets: dict[str, TokenBucket] = {}
        self._queue = WeightedFairQueue(self.policy.max_queue_depth)
        self._lock = threading.Lock()
        self._work = threading.Condition(self._lock)
        self._rng = np.random.default_rng(self.policy.seed)
        self._perf = PerformanceModel(self.scheduler.workers[0].device.board)
        self._estimates: dict[tuple, float] = {}
        self._seq = itertools.count()
        self._inflight = 0
        self._inflight_reqs: dict[str, _Request] = {}
        self._closing = False
        self._closed = False
        self._thread: threading.Thread | None = None
        if start:
            self.start()

    # -- lifecycle ---------------------------------------------------------- #

    def start(self) -> None:
        """Start the dispatch thread (no-op when already running)."""
        with self._lock:
            if self._thread is not None and self._thread.is_alive():
                return
            if self._closed:
                raise ConfigurationError(
                    "service is closed",
                    param="closed",
                    value=True,
                    constraint="start() requires an open service",
                )
            self._thread = threading.Thread(
                target=self._dispatch_loop, name="stencil-service-dispatch",
                daemon=True,
            )
            self._thread.start()

    def close(self, drain: bool = True, timeout_s: float = 60.0) -> None:
        """Stop admitting; drain or shed the queue; release resources.

        ``drain=True`` lets already-admitted work finish (bounded by
        ``timeout_s``); ``drain=False`` fails every queued request with
        a typed :class:`ShedError`.  Idempotent.  The service closes
        its scheduler and then its artifact cache — programs outlive
        the scheduler but not the service.
        """
        with self._work:
            if self._closed:
                return
            self._closing = True
            if not drain:
                for entry in self._queue.drain():
                    self._finish_locked(
                        entry.item,
                        self._rejection(
                            entry.item, "service shutting down", shed=True
                        ),
                    )
            self._work.notify_all()
            thread = self._thread
        if thread is not None and thread.is_alive():
            thread.join(timeout=timeout_s)
        with self._work:
            for entry in self._queue.drain():  # drain timed out (or no thread)
                self._finish_locked(
                    entry.item,
                    self._rejection(
                        entry.item, "service shutting down", shed=True
                    ),
                )
            # a join timeout leaves the dispatch thread mid-batch: fail
            # those tickets typed now (first writer wins, so a straggler
            # completion landing later is discarded, never double-counted)
            for req in list(self._inflight_reqs.values()):
                elapsed = time.monotonic() - req.admitted_s
                self._finish_locked(
                    req,
                    ServiceResult(
                        request_id=req.request_id,
                        tenant=req.tenant,
                        status="failed",
                        error_type="SchedulerShutdownError",
                        error=str(
                            SchedulerShutdownError(
                                f"service closed while request "
                                f"{req.request_id!r} was in flight"
                            )
                        ),
                        wall_elapsed_s=elapsed,
                    ),
                )
            self._inflight_reqs.clear()
            self._closed = True
        self.scheduler.close()
        self.artifacts.close()

    # -- tenants ------------------------------------------------------------ #

    def register_tenant(self, tenant: str, quota: TenantQuota) -> None:
        """Install (or replace) a tenant's quota; resets its bucket."""
        with self._lock:
            self._quotas[tenant] = quota
            self._buckets.pop(tenant, None)

    def _quota(self, tenant: str) -> TenantQuota:
        return self._quotas.get(tenant) or TenantQuota()

    def _bucket(self, tenant: str) -> TokenBucket:
        bucket = self._buckets.get(tenant)
        if bucket is None:
            quota = self._quota(tenant)
            bucket = self._buckets[tenant] = TokenBucket(
                quota.rate_per_s, quota.burst
            )
        return bucket

    # -- admission ----------------------------------------------------------- #

    def submit(
        self,
        tenant: str,
        spec: StencilSpec,
        config: BlockingConfig | None,
        grid: np.ndarray,
        iterations: int = 1,
        *,
        priority: int = 0,
        deadline_s: float | None = None,
        sim_deadline_s: float | None = None,
        checkpoint: CheckpointPolicy | int | None = None,
        watchdog_factor: float | None = None,
    ) -> ServiceTicket:
        """Admit one request; returns its ticket or raises typed.

        Raises :class:`ShedError` when the tenant's token bucket is
        empty or the queue is full and nothing lower-priority can be
        shed; both carry ``retry_after_s``.  ``deadline_s`` is a
        wall-clock budget covering queueing, dispatch and retries;
        ``sim_deadline_s`` is the scheduler's simulated-clock budget.
        ``config=None`` defers the blocking config to the empirical
        autotuner (:mod:`repro.runtime.autotune`): resolved once here at
        admission — warm keys cost one persisted-selection read — so
        queueing, coalescing and dispatch all see a pinned config.
        """
        if config is None:
            from repro.runtime.autotune import resolve_config

            config = resolve_config(
                spec, grid.shape, iterations=iterations, engine="auto"
            )
        for name, value in (
            ("deadline_s", deadline_s), ("sim_deadline_s", sim_deadline_s)
        ):
            if value is not None and not (math.isfinite(value) and value > 0):
                raise ConfigurationError(
                    f"{name} must be finite and > 0, got {value}",
                    param=name, value=value,
                    constraint=f"math.isfinite({name}) and {name} > 0",
                )
        now = time.monotonic()
        with self._work:
            if self._closing or self._closed:
                raise ConfigurationError(
                    "service is closed to new work",
                    param="closed",
                    value=True,
                    constraint="submit() requires an open service",
                )
            quota = self._quota(tenant)
            wait_s = self._bucket(tenant).try_acquire(now)
            if wait_s > 0.0:
                self.metrics.count(tenant, "shed")
                raise ShedError(
                    f"tenant {tenant!r} exceeded its rate quota "
                    f"({quota.rate_per_s}/s, burst {quota.burst:g})",
                    tenant=tenant,
                    queued=self._queue.depth,
                    capacity=self._queue.capacity,
                    retry_after_s=wait_s,
                )
            if self._queue.depth >= self._queue.capacity:
                victim = self._queue.evict_lowest(below_priority=priority)
                if victim is None:
                    self.metrics.count(tenant, "shed")
                    raise ShedError(
                        f"queue is full ({self._queue.capacity}) and no "
                        f"lower-priority job can be shed for {tenant!r}",
                        tenant=tenant,
                        queued=self._queue.depth,
                        capacity=self._queue.capacity,
                        retry_after_s=self._drain_estimate_s(),
                    )
                self._finish_locked(
                    victim.item,
                    self._rejection(
                        victim.item,
                        f"shed while queued: displaced by priority "
                        f"{priority} work (own priority {victim.priority})",
                        shed=True,
                    ),
                )
            request = _Request(
                request_id=f"{tenant}/{next(self._seq)}",
                tenant=tenant,
                spec=spec,
                config=config,
                grid=grid,
                iterations=iterations,
                priority=priority,
                deadline_s=deadline_s,
                sim_deadline_s=sim_deadline_s,
                checkpoint=checkpoint,
                watchdog_factor=watchdog_factor,
                admitted_s=now,
                ticket=ServiceTicket(f"{tenant}/queued", tenant),
            )
            request.ticket.request_id = request.request_id
            self.metrics.count(tenant, "submitted")
            self._queue.push(tenant, quota.weight, priority, request)
            self._work.notify()
            return request.ticket

    def submit_batch(self, requests: list[dict]) -> list[ServiceTicket]:
        """Admit many requests; synchronous rejections become failed tickets.

        Each dict holds :meth:`submit` arguments (``tenant``, ``spec``,
        ``config``, ``grid``, ...).  A request the admission ladder
        rejects yields an already-fulfilled ticket carrying the typed
        error instead of raising, so batch callers handle one shape.
        """
        tickets: list[ServiceTicket] = []
        for kwargs in requests:
            try:
                tickets.append(self.submit(**kwargs))
            except ShedError as err:
                ticket = ServiceTicket(
                    f"{kwargs.get('tenant', '?')}/shed", kwargs.get("tenant", "?")
                )
                ticket._fulfil(
                    ServiceResult(
                        request_id=ticket.request_id,
                        tenant=ticket.tenant,
                        status="failed",
                        error_type=type(err).__name__,
                        error=str(err),
                        retry_after_s=err.retry_after_s,
                    )
                )
                tickets.append(ticket)
        return tickets

    # -- dispatch ------------------------------------------------------------ #

    def run_pending(self) -> int:
        """Drain the queue on the caller's thread (tests, ``start=False``).

        Returns the number of requests processed.  Invalid while the
        dispatch thread is running.
        """
        with self._lock:
            thread = self._thread
        if thread is not None and thread.is_alive():
            raise ConfigurationError(
                "run_pending() conflicts with the running dispatch thread",
                param="start",
                value=True,
                constraint="use start=False for synchronous draining",
            )
        processed = 0
        while True:
            with self._work:
                self._sweep_locked(time.monotonic())
                entry = self._queue.pop()
                siblings = (
                    self._collect_batch_locked(entry.item) if entry else []
                )
            if entry is None:
                return processed
            if siblings:
                self._process_batch([entry.item, *siblings])
            else:
                self._process(entry.item)
            processed += 1 + len(siblings)

    def _dispatch_loop(self) -> None:
        while True:
            with self._work:
                self._sweep_locked(time.monotonic())
                entry = self._queue.pop()
                if entry is None:
                    if self._closing:
                        return
                    self._work.wait(timeout=0.05)
                    continue
                siblings = self._collect_batch_locked(entry.item)
                batch = [entry.item, *siblings]
                for req in batch:
                    self._inflight_reqs[req.request_id] = req
                self._inflight += len(batch)
            try:
                if siblings:
                    self._process_batch(batch)
                else:
                    self._process(batch[0])
            except BaseException as err:  # noqa: BLE001 - tickets must terminate
                # a dispatch-loop crash (or a close() racing an in-flight
                # coalesced batch) must never strand a ticket: fail every
                # unfulfilled one typed before the loop unwinds
                for req in batch:
                    self._finish(
                        req,
                        ServiceResult(
                            request_id=req.request_id,
                            tenant=req.tenant,
                            status="failed",
                            error_type="SchedulerShutdownError"
                            if self._is_closing()
                            else type(err).__name__,
                            error=f"dispatch failed: {err}",
                            wall_elapsed_s=time.monotonic() - req.admitted_s,
                        ),
                    )
                if not isinstance(err, Exception):
                    raise
            finally:
                with self._work:
                    for req in batch:
                        self._inflight_reqs.pop(req.request_id, None)
                    self._inflight -= len(batch)

    @staticmethod
    def _bucket_key(req: _Request) -> tuple:
        """The coalescing class of a request, by workload *content*.

        Two requests batch together iff their keys are equal: same
        stencil numeric identity (dims, radius, center, coefficient
        bytes — never ``spec == spec``, whose dataclass comparison of
        NumPy coefficient arrays raises on equal-but-distinct objects,
        which silently restricted coalescing to requests sharing one
        spec *instance*), same config, grid shape, iteration count and
        SLO knobs.  Heterogeneous traffic therefore still batches: each
        dispatch drains exactly the head's bucket and leaves the other
        buckets queued for their own turn.
        """
        s = req.spec
        return (
            s.dims,
            s.radius,
            float(s.center),
            s.coefficients.tobytes(),
            req.config,
            tuple(req.grid.shape),
            req.iterations,
            req.sim_deadline_s,
            req.checkpoint,
            req.watchdog_factor,
        )

    @staticmethod
    def _bucket_label(req: _Request) -> str:
        """Human-readable bucket name for per-bucket metrics."""
        shape = "x".join(str(n) for n in req.grid.shape)
        c = req.config
        return (
            f"{req.spec.dims}d-r{req.spec.radius}/{shape}/"
            f"bs{c.bsize_x}x{c.bsize_y}-pv{c.parvec}-pt{c.partime}/"
            f"it{req.iterations}"
        )

    def _collect_batch_locked(self, head: _Request) -> list[_Request]:
        """Pull queued requests batch-compatible with ``head`` (lock held).

        Compatibility is the workload-content bucket of
        :meth:`_bucket_key`: same stencil content, config, grid shape,
        iteration count, checkpoint and deadline knobs — everything the
        batch engine needs for one shared
        :class:`~repro.core.batch.BatchPlan` and one per-batch SLO.
        Only small grids qualify (``coalesce_max_cells``): batching
        amortizes per-launch overhead, which large grids never notice.
        Pulled requests keep their own tickets, wall deadlines and
        per-request error reporting.
        """
        limit = self.policy.coalesce_max_batch - 1
        if (
            not self.policy.coalesce
            or limit < 1
            or head.grid.size > self.policy.coalesce_max_cells
            or self._queue.depth == 0
        ):
            return []
        taken = 0
        head_key = self._bucket_key(head)

        def compatible(entry) -> bool:
            nonlocal taken
            req: _Request = entry.item
            if taken >= limit:
                return False
            match = self._bucket_key(req) == head_key
            if match:
                taken += 1
            return match

        return [entry.item for entry in self._queue.remove_if(compatible)]

    def _sweep_locked(self, now: float) -> None:
        """Fail queued requests that ran out of wait or deadline budget."""
        timeout = self.policy.queue_timeout_s

        def expired(entry) -> bool:
            req: _Request = entry.item
            waited = now - req.admitted_s
            if timeout is not None and waited > timeout:
                return True
            return req.deadline_s is not None and waited >= req.deadline_s

        for entry in self._queue.remove_if(expired):
            req: _Request = entry.item
            waited = now - req.admitted_s
            self.metrics.count(req.tenant, "queue_timeouts")
            self._finish_locked(
                req,
                ServiceResult(
                    request_id=req.request_id,
                    tenant=req.tenant,
                    status="failed",
                    error_type="QueueTimeoutError",
                    error=str(
                        QueueTimeoutError(
                            f"request {req.request_id!r} waited "
                            f"{waited:.4f} s without being dispatched",
                            tenant=req.tenant,
                            waited_s=waited,
                        )
                    ),
                    retry_after_s=self._drain_estimate_s(),
                    queue_wait_s=waited,
                    wall_elapsed_s=waited,
                ),
            )

    def _process(self, req: _Request) -> None:
        """Run one admitted request to termination (dispatch thread only)."""
        started = time.monotonic()
        queue_wait = started - req.admitted_s
        level = self._degrade_level()
        engine = ENGINE_LADDER[level]
        checkpoint = self._checkpoint_for(req, level)
        retries = 0
        last: JobResult | None = None
        coalesced = False
        while True:
            remaining = self._remaining_budget(req)
            if remaining is not None and remaining <= 0.0:
                self._fail_deadline(req, retries, queue_wait)
                return
            flights_before = self.artifacts.stats["flights"]
            job = StencilJob(
                job_id=f"{req.request_id}.r{retries}",
                spec=req.spec,
                config=req.config,
                grid=req.grid,
                iterations=req.iterations,
                deadline_s=req.sim_deadline_s,
                checkpoint=checkpoint,
                watchdog_factor=req.watchdog_factor,
                engine=engine,
            )
            try:
                result = self.scheduler.execute_job(job)
            except ConfigurationError as err:
                self._finish(
                    req,
                    ServiceResult(
                        request_id=req.request_id,
                        tenant=req.tenant,
                        status="failed",
                        error_type=type(err).__name__,
                        error=str(err),
                        retries=retries,
                        queue_wait_s=queue_wait,
                        wall_elapsed_s=time.monotonic() - req.admitted_s,
                    ),
                )
                return
            coalesced = coalesced or (
                self.artifacts.stats["flights"] == flights_before
            )
            last = result
            if result.status == "completed":
                break
            if result.error_type not in RETRYABLE_ERRORS:
                break
            if retries >= self.policy.max_retries:
                break
            delay = self._backoff_s(retries)
            remaining = self._remaining_budget(req)
            if remaining is not None and delay >= remaining:
                break  # the retry could not land inside the budget
            retries += 1
            self.metrics.count(req.tenant, "retries")
            time.sleep(delay)
            # renewed pressure reading: a retry may degrade further
            level = max(level, self._degrade_level())
            engine = ENGINE_LADDER[level]
            checkpoint = self._checkpoint_for(req, level)

        elapsed = time.monotonic() - req.admitted_s
        if req.deadline_s is not None and elapsed > req.deadline_s:
            # late result discarded at the service layer too
            self._fail_deadline(req, retries, queue_wait, late=True)
            return
        degraded = level > 0 or (
            last.engine is not None
            and last.status == "completed"
            and last.engine == FLOOR_ENGINE
            and self.scheduler.engine != FLOOR_ENGINE
            and engine != FLOOR_ENGINE
        )
        self._finish(
            req,
            ServiceResult(
                request_id=req.request_id,
                tenant=req.tenant,
                status=last.status,
                result=last.result,
                job_result=last,
                error_type=last.error_type,
                error=last.error,
                degraded=degraded,
                degraded_engine=last.engine if degraded else None,
                coalesced=coalesced,
                retries=retries,
                queue_wait_s=queue_wait,
                wall_elapsed_s=elapsed,
            ),
        )

    def _process_batch(self, reqs: list[_Request]) -> None:
        """Run coalesced requests as one batched launch; split results.

        Per-batch SLOs ride the scheduler's :class:`BatchStencilJob`
        semantics (one simulated-clock deadline, whole-slab
        checkpoints); wall-clock deadlines stay *per request* — an
        expired request is failed typed before dispatch and a late
        result is discarded for that request only.  Whole-batch
        transient failures retry under the service ladder exactly like
        single jobs; a *per-grid* transient inside a partial batch
        drops that request back onto the single-job retry ladder, so
        batching never shrinks a request's retry budget.
        """
        started = time.monotonic()
        batch_size = len(reqs)
        self.metrics.observe_batch(self._bucket_label(reqs[0]), batch_size)
        level = self._degrade_level()
        engine = ENGINE_LADDER[level]
        checkpoint = self._checkpoint_for(reqs[0], level)
        retries = 0
        coalesced = False
        live = list(reqs)
        result = None
        while True:
            still: list[_Request] = []
            for req in live:
                remaining = self._remaining_budget(req)
                if remaining is not None and remaining <= 0.0:
                    self._fail_deadline(
                        req, retries, started - req.admitted_s
                    )
                else:
                    still.append(req)
            live = still
            if not live:
                return
            flights_before = self.artifacts.stats["flights"]
            job = BatchStencilJob(
                job_id=f"{live[0].request_id}.b{retries}",
                spec=live[0].spec,
                config=live[0].config,
                grids=tuple(np.asarray(r.grid) for r in live),
                iterations=live[0].iterations,
                deadline_s=live[0].sim_deadline_s,
                checkpoint=checkpoint,
                watchdog_factor=live[0].watchdog_factor,
                engine=engine,
            )
            try:
                result = self.scheduler.execute_batch(job)
            except ConfigurationError as err:
                for req in live:
                    self._finish(
                        req,
                        ServiceResult(
                            request_id=req.request_id,
                            tenant=req.tenant,
                            status="failed",
                            error_type=type(err).__name__,
                            error=str(err),
                            batched=True,
                            batch_size=batch_size,
                            retries=retries,
                            queue_wait_s=started - req.admitted_s,
                            wall_elapsed_s=time.monotonic() - req.admitted_s,
                        ),
                    )
                return
            coalesced = coalesced or (
                self.artifacts.stats["flights"] == flights_before
            )
            if result.status != "failed":
                break
            if result.error_types[0] not in RETRYABLE_ERRORS:
                break
            if retries >= self.policy.max_retries:
                break
            delay = self._backoff_s(retries)
            budgets = [
                b
                for b in (self._remaining_budget(r) for r in live)
                if b is not None
            ]
            if budgets and delay >= min(budgets):
                break  # the retry could not land inside someone's budget
            retries += 1
            for req in live:
                self.metrics.count(req.tenant, "retries")
            time.sleep(delay)
            # renewed pressure reading: a retry may degrade further
            level = max(level, self._degrade_level())
            engine = ENGINE_LADDER[level]
            checkpoint = self._checkpoint_for(live[0], level)

        for i, req in enumerate(live):
            queue_wait = started - req.admitted_s
            elapsed = time.monotonic() - req.admitted_s
            out = result.results[i]
            err_type = result.error_types[i]
            if out is not None:
                if req.deadline_s is not None and elapsed > req.deadline_s:
                    self._fail_deadline(req, retries, queue_wait, late=True)
                    continue
                degraded = level > 0 or (
                    result.engine == FLOOR_ENGINE
                    and self.scheduler.engine != FLOOR_ENGINE
                    and engine != FLOOR_ENGINE
                )
                self._finish(
                    req,
                    ServiceResult(
                        request_id=req.request_id,
                        tenant=req.tenant,
                        status="completed",
                        result=out,
                        job_result=result,
                        degraded=degraded,
                        degraded_engine=result.engine if degraded else None,
                        coalesced=coalesced,
                        batched=True,
                        batch_size=batch_size,
                        retries=retries,
                        queue_wait_s=queue_wait,
                        wall_elapsed_s=elapsed,
                    ),
                )
            elif err_type in RETRYABLE_ERRORS and result.status == "partial":
                # per-grid transient inside a healthy batch: this request
                # alone re-enters the single-job retry ladder
                self._process(req)
            else:
                self._finish(
                    req,
                    ServiceResult(
                        request_id=req.request_id,
                        tenant=req.tenant,
                        status="failed",
                        job_result=result,
                        error_type=err_type,
                        error=result.errors[i],
                        coalesced=coalesced,
                        batched=True,
                        batch_size=batch_size,
                        retries=retries,
                        queue_wait_s=queue_wait,
                        wall_elapsed_s=elapsed,
                    ),
                )

    # -- helpers ------------------------------------------------------------- #

    def _is_closing(self) -> bool:
        with self._lock:
            return self._closing

    def _degrade_level(self) -> int:
        """0 = as requested, 1 = shrunk checkpoints, 2 = also NumPy."""
        if all(w.breaker.tripped for w in self.scheduler.workers):
            return 2
        with self._lock:
            frac = self._queue.depth / self._queue.capacity
        if frac >= self.policy.degrade_hard_at:
            return 2
        if frac >= self.policy.degrade_at:
            return 1
        return 0

    def _checkpoint_for(
        self, req: _Request, level: int
    ) -> CheckpointPolicy | int | None:
        """Shrink the checkpoint cadence under pressure (never grow it)."""
        base = req.checkpoint
        if level == 0:
            return base
        k = self.policy.degraded_checkpoint
        if base is None:
            return k
        if isinstance(base, int):
            return min(base, k)
        return replace(base, every=min(base.every, k))

    def _remaining_budget(self, req: _Request) -> float | None:
        if req.deadline_s is None:
            return None
        return req.deadline_s - (time.monotonic() - req.admitted_s)

    def _backoff_s(self, retries: int) -> float:
        base = self.policy.retry_backoff_s * (2.0**retries)
        jitter = self.policy.retry_jitter
        if jitter == 0.0:
            return base
        with self._lock:
            factor = 1.0 + jitter * float(self._rng.uniform(-1.0, 1.0))
        return base * factor

    def _estimate_job_s(self, req: _Request) -> float:
        """Modeled service time of one request (memoised per workload)."""
        key = artifact_key(
            req.spec, req.config, self.scheduler.workers[0].device.board
        ) + (tuple(req.grid.shape), req.iterations)
        est = self._estimates.get(key)
        if est is None:
            est = self._perf.predict_measured(
                req.spec, req.config, tuple(req.grid.shape), req.iterations
            ).time_s
            self._estimates[key] = est
        return est

    def _drain_estimate_s(self) -> float:
        """How long the current backlog should take to drain (the
        ``retry_after_s`` hint on queue-full sheds and timeouts).
        Clamped to :data:`MIN_RETRY_AFTER_S` — a momentarily empty
        backlog must not hand clients a zero-delay retry hint."""
        depth = self._queue.depth + self._inflight
        if depth == 0:
            return MIN_RETRY_AFTER_S
        per_job = 0.0
        for entries in self._queue._queues.values():
            for entry in entries:
                per_job = max(per_job, self._estimate_job_s(entry.item))
        devices = max(1, len(self.scheduler.workers))
        # modeled kernel time is simulated; wall dispatch dominates, so
        # floor the hint at one scheduling quantum per queued job
        return max(depth * per_job / devices, depth * 1e-3, MIN_RETRY_AFTER_S)

    def _rejection(
        self, req: _Request, message: str, *, shed: bool
    ) -> ServiceResult:
        err = ShedError(
            message,
            tenant=req.tenant,
            queued=self._queue.depth,
            capacity=self._queue.capacity,
            retry_after_s=self._drain_estimate_s(),
        )
        self.metrics.count(req.tenant, "shed")
        return ServiceResult(
            request_id=req.request_id,
            tenant=req.tenant,
            status="failed",
            error_type=type(err).__name__,
            error=str(err),
            retry_after_s=err.retry_after_s,
            queue_wait_s=time.monotonic() - req.admitted_s,
            wall_elapsed_s=time.monotonic() - req.admitted_s,
        )

    def _fail_deadline(
        self, req: _Request, retries: int, queue_wait: float, late: bool = False
    ) -> None:
        elapsed = time.monotonic() - req.admitted_s
        why = (
            f"request {req.request_id!r}: elapsed {elapsed:.4f} s exceeds "
            f"wall deadline {req.deadline_s:.4f} s"
        )
        if late:
            why += "; late result discarded"
        self.metrics.count(req.tenant, "deadline_misses")
        self._finish(
            req,
            ServiceResult(
                request_id=req.request_id,
                tenant=req.tenant,
                status="failed",
                error_type="DeadlineExceededError",
                error=why,
                retries=retries,
                queue_wait_s=queue_wait,
                wall_elapsed_s=elapsed,
            ),
        )

    def _finish(self, req: _Request, result: ServiceResult) -> None:
        if not req.ticket._fulfil(result):
            return  # already terminal (e.g. shed at close); first answer wins
        if result.batched:
            self.metrics.count(req.tenant, "batched")
        if result.status == "completed":
            self.metrics.count(req.tenant, "completed")
            if result.degraded:
                self.metrics.count(req.tenant, "degraded")
            if result.coalesced:
                self.metrics.count(req.tenant, "coalesced")
        else:
            self.metrics.count(req.tenant, "failed")
        self.metrics.observe(
            req.tenant, result.wall_elapsed_s, result.queue_wait_s
        )

    def _finish_locked(self, req: _Request, result: ServiceResult) -> None:
        """Finish while already holding the service lock (sweeps, sheds)."""
        if not req.ticket._fulfil(result):
            return
        self.metrics.count(req.tenant, "failed")
        self.metrics.observe(
            req.tenant, result.wall_elapsed_s, result.queue_wait_s
        )

    # -- introspection -------------------------------------------------------- #

    @property
    def queue_depth(self) -> int:
        with self._lock:
            return self._queue.depth

    def report(self) -> dict:
        """One structure with tenant metrics, cache stats and devices."""
        return {
            "tenants": self.metrics.snapshot(),
            "artifacts": self.artifacts.snapshot(),
            "queue_depth": self.queue_depth,
            "devices": self.scheduler.device_report(),
        }
