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
* **batched dispatch** — every dispatch runs one scheduler
  :class:`~repro.runtime.scheduler.StencilJob`: the popped request
  alone, or — when it is a *small* grid and compatible requests (same
  spec/config/shape/iterations/checkpoint/deadline knobs) are waiting
  behind it — the request plus up to ``coalesce_max_batch - 1`` of
  them, as one launch with one slab transfer and the per-job overhead
  paid once (``repro.core.batch``).  The job's
  :class:`~repro.runtime.scheduler.JobResult` has a slot per grid;
  results and typed errors are split back per request (coalesced
  requests carry the ``batched`` marker), and a per-grid transient
  failure inside an otherwise-healthy launch sends that request alone
  back through the retry ladder, so batching never *reduces* anyone's
  retry budget.

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

from repro import errors
from repro.core.accelerator import FLOOR_ENGINE
from repro.core.blocking import BlockingConfig
from repro.core.stencil import StencilSpec, spec_key
from repro.errors import (
    ConfigurationError,
    QueueTimeoutError,
    ReproError,
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
from repro.runtime.scheduler import JobResult, StencilJob, StencilScheduler

#: Engine pinned at each degrade level.  ``None`` defers to the
#: scheduler's preference: level 1 only shrinks the checkpoint cadence,
#: because a slower engine under queue pressure would add load, and
#: level 2 pins the NumPy floor.
ENGINE_LADDER: tuple[str | None, ...] = (None, None, FLOOR_ENGINE)

#: Error types the service re-dispatches (transient detections).  A
#: deadline, shed or configuration failure is never retried.
RETRYABLE_ERRORS = frozenset({"FaultDetectedError", "WatchdogTimeoutError"})

#: The ``error_type`` names a failed reply may carry: the classes of the
#: :mod:`repro.errors` taxonomy.
TYPED_ERRORS = frozenset(
    name
    for name, obj in vars(errors).items()
    if isinstance(obj, type) and issubclass(obj, ReproError)
)

#: Workloads the drain estimate memoises modeled service times for; the
#: memo is cleared when full, so a service fed many shapes stays bounded.
ESTIMATE_MEMO = 64

#: Service-level re-dispatches of a transient failure, on top of the
#: scheduler's own.
MAX_RETRIES = 1

#: Retry ``n`` backs off ``retry_backoff_s * 2**n`` scaled by a uniform
#: factor in ``1 +/- RETRY_JITTER``, drawn from a generator seeded with
#: :data:`RETRY_SEED`: retries of one launch's requests spread out, and
#: a rerun draws the same delays.
RETRY_JITTER = 0.5
RETRY_SEED = 2018

#: Queue-depth fractions of the degrade ladder: from
#: :data:`DEGRADE_AT` dispatch keeps the scheduler's engine but shrinks
#: the checkpoint cadence to :data:`DEGRADED_CHECKPOINT`; from
#: :data:`DEGRADE_HARD_AT` it also pins jobs to the NumPy engine.
DEGRADE_AT = 0.5
DEGRADE_HARD_AT = 0.875
DEGRADED_CHECKPOINT = 2

#: Warm programs the service-owned artifact cache keeps.
ARTIFACT_CAPACITY = 8

#: Only grids of at most this many cells batch: batching amortizes
#: per-launch overhead, which only dominates small grids.
COALESCE_MAX_CELLS = 32**3

#: Latency samples each tenant's reservoir keeps (a ring of the most
#: recent), so a long-lived service holds O(window) memory per tenant,
#: not O(requests).
METRICS_WINDOW = 1024


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


#: The quota of every tenant without a registered one: unmetered, weight
#: 1.  Frozen, so one instance serves every such tenant and ``submit``
#: builds none.
DEFAULT_QUOTA = TenantQuota()


@dataclass(frozen=True)
class ServicePolicy:
    """Service-level knobs: queue bound, queued wait, retry backoff and
    batch size.

    ``max_queue_depth`` bounds the queue; the degrade ladder
    (:data:`DEGRADE_AT`, :data:`DEGRADE_HARD_AT`) reads its fill.
    ``queue_timeout_s`` bounds the wall-clock wait of a queued job.
    Retries use seeded, jittered exponential backoff from
    ``retry_backoff_s`` (:data:`RETRY_JITTER`), bounded by
    :data:`MAX_RETRIES` and by the request's remaining deadline budget.
    Up to ``coalesce_max_batch`` compatible queued requests ride one
    launch (``1`` turns batching off), for grids of at most
    :data:`COALESCE_MAX_CELLS` cells.
    """

    max_queue_depth: int = 64
    queue_timeout_s: float | None = None
    retry_backoff_s: float = 0.005
    coalesce_max_batch: int = 32

    def __post_init__(self) -> None:
        if self.max_queue_depth < 1:
            raise ConfigurationError(
                f"max_queue_depth must be >= 1, got {self.max_queue_depth}"
            )
        if self.queue_timeout_s is not None and self.queue_timeout_s <= 0:
            raise ConfigurationError(
                f"queue_timeout_s must be > 0, got {self.queue_timeout_s}"
            )
        if self.retry_backoff_s <= 0:
            raise ConfigurationError(
                f"retry_backoff_s must be > 0, got {self.retry_backoff_s}"
            )
        if self.coalesce_max_batch < 1:
            raise ConfigurationError(
                f"coalesce_max_batch must be >= 1, got {self.coalesce_max_batch}"
            )


@dataclass
class ServiceResult:
    """Terminal outcome of one admitted request.

    ``status`` is ``"completed"`` (bit-exact ``result`` present) or
    ``"failed"`` (``error_type``/``error`` name the typed failure).
    ``degraded`` marks jobs that ran below the service's preferred
    engine tier or with a shrunk checkpoint cadence; ``coalesced``
    marks jobs that reused a warm cached program; ``batched`` marks
    requests that rode a batched launch with ``batch_size`` siblings;
    ``retries`` counts service-level re-dispatches (on top of the
    scheduler's own).  Not frozen: the service builds one per request,
    and a frozen dataclass pays ``object.__setattr__`` per field.  No
    code writes a result's fields after it is built.
    """

    request_id: str
    tenant: str
    status: str
    result: np.ndarray | None = field(repr=False, default=None)
    job_result: JobResult | None = field(repr=False, default=None)
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
    """Handle for one in-flight request; fulfilled by the dispatch loop.

    Two plain locks, no ``threading.Event``: ``_claim`` is taken
    without blocking by the one :meth:`_fulfil` that wins, and
    ``_latch`` is acquired at construction and released by that winner
    once the result is stored.  A waiter blocks on the latch and hands
    it straight back, so every waiter wakes in turn.
    """

    def __init__(self, request_id: str, tenant: str):
        self.request_id = request_id
        self.tenant = tenant
        self._result: ServiceResult | None = None
        self._claim = threading.Lock()
        self._latch = threading.Lock()
        self._latch.acquire()

    def _fulfil(self, result: ServiceResult) -> bool:
        """Record the terminal result exactly once (first writer wins).

        Returns False when the ticket already holds a terminal result —
        a late completion racing a shutdown shed, or vice versa — so
        the caller knows its result was discarded and must not count it
        in metrics.
        """
        if not self._claim.acquire(blocking=False):
            return False
        self._result = result
        self._latch.release()
        return True

    @property
    def done(self) -> bool:
        return self._result is not None

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the request terminates; True when it has."""
        if self._result is not None:
            return True
        if timeout is None:
            self._latch.acquire()
        elif not self._latch.acquire(timeout=max(timeout, 0.0)):
            return self._result is not None
        self._latch.release()  # wake the next waiter
        return True

    def result(self, timeout: float | None = None) -> ServiceResult:
        """The terminal :class:`ServiceResult` (blocks until available)."""
        if not self.wait(timeout):
            raise TimeoutError(
                f"request {self.request_id!r} still in flight after "
                f"{timeout} s"
            )
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
    #: The coalescing class (:meth:`StencilService._bucket_key`), set
    #: once at admission.
    key: tuple = field(default=(), repr=False)


#: Per-tenant counter keys, in :meth:`ServiceMetrics.snapshot` order.
COUNTERS = (
    "submitted", "completed", "failed", "shed", "queue_timeouts",
    "deadline_misses", "degraded", "coalesced", "batched", "retries",
)


class ServiceMetrics:
    """Thread-safe per-tenant counters and latency percentiles.

    Latency/queue-wait samples live in a bounded per-tenant ring of the
    :data:`METRICS_WINDOW` most recent observations, so the percentiles
    are *recent* percentiles (the operationally useful kind).
    Degenerate sample counts are pinned: zero samples emit no
    percentile keys; a single sample *is* both p50 and p99.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, dict[str, int]] = {}
        self._latencies: dict[str, deque[float]] = {}
        self._queue_waits: dict[str, deque[float]] = {}
        self._buckets: dict[str, dict[str, int]] = {}

    def _tenant(self, tenant: str) -> dict[str, int]:
        counters = self._counters.get(tenant)
        if counters is None:
            counters = self._counters[tenant] = dict.fromkeys(COUNTERS, 0)
        return counters

    def record(
        self,
        outcomes: list[tuple[str, tuple[str, ...], float | None, float]],
        bucket: str | None = None,
        size: int = 0,
    ) -> None:
        """Apply one batch of bookkeeping under one lock acquisition.

        Each outcome is ``(tenant, keys, latency_s, queue_wait_s)``:
        every key counts once, and a ``latency_s`` of ``None`` records
        no sample (an admission, a refused submit, or a retry counted
        before its request finishes).

        ``bucket`` names a coalesced launch of ``size`` requests.
        Buckets are workload-shaped (one per distinct
        ``(spec, config, shape, iterations)`` coalescing class), so the
        per-bucket ``batch_size`` distribution shows which traffic
        shapes actually amortize launches and which always ride alone.
        """
        with self._lock:
            if bucket is not None:
                entry = self._buckets.setdefault(
                    bucket,
                    {"batches": 0, "requests": 0, "max_batch_size": 0},
                )
                entry["batches"] += 1
                entry["requests"] += size
                entry["max_batch_size"] = max(entry["max_batch_size"], size)
            for tenant, keys, latency_s, queue_wait_s in outcomes:
                counters = self._tenant(tenant)
                for key in keys:
                    counters[key] += 1
                if latency_s is not None:
                    self._observe_locked(tenant, latency_s, queue_wait_s)

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

    def _observe_locked(
        self, tenant: str, latency_s: float, queue_wait_s: float
    ) -> None:
        lat = self._latencies.get(tenant)
        if lat is None:
            lat = self._latencies[tenant] = deque(maxlen=METRICS_WINDOW)
            self._queue_waits[tenant] = deque(maxlen=METRICS_WINDOW)
        lat.append(latency_s)
        self._queue_waits[tenant].append(queue_wait_s)

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
            self.artifacts = ArtifactCache(capacity=ARTIFACT_CAPACITY)
            scheduler = StencilScheduler(
                devices=scheduler, program_cache=self.artifacts
            )
        else:
            # adopt the caller's cache so coalescing markers and stats
            # observe the programs the scheduler actually reuses
            self.artifacts = scheduler.program_cache
        self.scheduler = scheduler
        self.metrics = ServiceMetrics()
        self._quotas: dict[str, TenantQuota] = dict(quotas or {})
        self._buckets: dict[str, TokenBucket] = {}
        self._queue = WeightedFairQueue(self.policy.max_queue_depth)
        self._lock = threading.Lock()
        self._work = threading.Condition(self._lock)
        self._rng = np.random.default_rng(RETRY_SEED)
        self._perf = PerformanceModel(self.scheduler.workers[0].device.board)
        self._estimates: dict[tuple, float] = {}
        self._seq = itertools.count()
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

        ``drain=True`` lets the running dispatch thread finish the
        already-admitted work (bounded by ``timeout_s``); whatever is
        still queued after that — all of it on a service whose dispatch
        thread never started — fails with a typed :class:`ShedError`,
        so call :meth:`run_pending` first to run it.  ``drain=False``
        sheds every queued request at once.  A request still in flight
        when the wait ends fails with a typed
        :class:`~repro.errors.SchedulerShutdownError`.  Idempotent.
        The service closes its scheduler and then its artifact cache —
        programs outlive the scheduler but not the service.
        """
        with self._work:
            if self._closed:
                return
            self._closing = True
            if not drain:
                self._shed_queue_locked()
            self._work.notify_all()
            thread = self._thread
        if thread is not None and thread.is_alive():
            thread.join(timeout=timeout_s)
        with self._work:
            self._shed_queue_locked()  # drain timed out (or no thread)
            # a join timeout leaves the dispatch thread mid-batch: fail
            # those tickets typed now (first writer wins, so a straggler
            # completion landing later is discarded, never double-counted)
            for req in list(self._inflight_reqs.values()):
                err = SchedulerShutdownError(
                    f"service closed while request {req.request_id!r} "
                    f"was in flight"
                )
                self._finish(req, self._failed(req, type(err).__name__, str(err)))
            self._inflight_reqs.clear()
            self._closed = True
        self.scheduler.close()
        self.artifacts.close()

    def _shed_queue_locked(self) -> None:
        """Fail every queued request typed: the service is shutting down."""
        for entry in self._queue.drain():
            self._shed(entry.item, "service shutting down")

    # -- tenants ------------------------------------------------------------ #

    def register_tenant(self, tenant: str, quota: TenantQuota) -> None:
        """Install (or replace) a tenant's quota; resets its bucket."""
        with self._lock:
            self._quotas[tenant] = quota
            self._buckets.pop(tenant, None)

    def _quota(self, tenant: str) -> TenantQuota:
        return self._quotas.get(tenant, DEFAULT_QUOTA)

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

        ``grid`` is read at dispatch, not copied at submit: a
        C-contiguous float32 grid that runs alone in its launch is the
        device's source buffer itself, with no host copy.  The caller
        must not write ``grid`` until the ticket resolves.  The reply's
        ``result`` is the caller's own array, sharing memory with no
        other reply and with no input.
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
                self.metrics.record([(tenant, ("shed",), None, 0.0)])
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
                    self.metrics.record([(tenant, ("shed",), None, 0.0)])
                    raise ShedError(
                        f"queue is full ({self._queue.capacity}) and no "
                        f"lower-priority job can be shed for {tenant!r}",
                        tenant=tenant,
                        queued=self._queue.depth,
                        capacity=self._queue.capacity,
                        retry_after_s=self._drain_estimate_s(),
                    )
                self._shed(
                    victim.item,
                    f"shed while queued: displaced by priority "
                    f"{priority} work (own priority {victim.priority})",
                )
            request_id = f"{tenant}/{next(self._seq)}"
            request = _Request(
                request_id=request_id,
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
                ticket=ServiceTicket(request_id, tenant),
            )
            request.key = self._bucket_key(request)
            self.metrics.record([(tenant, ("submitted",), None, 0.0)])
            self._queue.push(
                tenant, quota.weight, priority, request,
                expires=deadline_s is not None,
            )
            self._work.notify()
            return request.ticket

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
        while n := self._dispatch_step():
            processed += n
        return processed

    def _dispatch_loop(self) -> None:
        while True:
            if self._dispatch_step():
                continue
            with self._work:
                while not self._queue.depth:
                    if self._closing:
                        return
                    self._work.wait(timeout=0.05)

    def _dispatch_step(self) -> int:
        """Dispatch the next batch to termination; returns its size (0
        when nothing is queued).

        Sweeps expired requests, pops the next request and its coalesced
        siblings, and registers them in flight (so :meth:`close` and
        :meth:`_drain_estimate_s` see them) until they finish.  A crash
        in :meth:`_process` never strands a ticket: every unfulfilled
        one fails typed before the step returns.  A crash outside the
        :mod:`repro.errors` taxonomy replies as
        :class:`~repro.errors.SchedulerError`, and the message names the
        class that escaped.
        """
        with self._work:
            self._sweep_locked(time.monotonic())
            entry = self._queue.pop()
            if entry is None:
                return 0
            batch = [entry.item, *self._collect_batch_locked(entry.item)]
            for req in batch:
                self._inflight_reqs[req.request_id] = req
        try:
            self._process(batch)
        except BaseException as err:  # noqa: BLE001 - tickets must terminate
            if self._is_closing():
                error_type = "SchedulerShutdownError"
            elif isinstance(err, ReproError):
                error_type = type(err).__name__
            else:
                error_type = "SchedulerError"
            message = f"dispatch failed: {type(err).__name__}: {err}"
            for req in batch:
                self._finish(req, self._failed(req, error_type, message))
            if not isinstance(err, Exception):
                raise
        finally:
            with self._work:
                for req in batch:
                    self._inflight_reqs.pop(req.request_id, None)
        return len(batch)

    @staticmethod
    def _bucket_key(req: _Request) -> tuple:
        """The coalescing class of a request, by workload *content*.

        Two requests batch together iff their keys are equal: same
        stencil numeric identity (:func:`~repro.core.stencil.spec_key`:
        dims, radius, center, coefficient bytes — never ``spec == spec``, whose dataclass comparison of
        NumPy coefficient arrays raises on equal-but-distinct objects,
        which silently restricted coalescing to requests sharing one
        spec *instance*), same config, grid shape, iteration count and
        SLO knobs.  Heterogeneous traffic therefore still batches: each
        dispatch drains exactly the head's bucket and leaves the other
        buckets queued for their own turn.
        """
        return spec_key(req.spec) + (
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
        Only small grids qualify (:data:`COALESCE_MAX_CELLS`).
        Pulled requests keep their own tickets, wall deadlines and
        per-request error reporting.
        """
        limit = self.policy.coalesce_max_batch - 1
        if (
            limit < 1
            or head.grid.size > COALESCE_MAX_CELLS
            or self._queue.depth == 0
        ):
            return []
        taken = 0
        head_key = head.key

        def compatible(entry) -> bool:
            nonlocal taken
            if taken >= limit:
                return False
            match = entry.item.key == head_key
            if match:
                taken += 1
            return match

        return [entry.item for entry in self._queue.remove_if(compatible)]

    def _sweep_locked(self, now: float) -> None:
        """Fail queued requests that ran out of wait or deadline budget.

        Returns at once when none can: no ``queue_timeout_s`` and no
        queued request with a ``deadline_s`` (the queue's
        :attr:`~repro.runtime.admission.WeightedFairQueue.expiring`).
        """
        timeout = self.policy.queue_timeout_s
        if timeout is None and self._queue.expiring == 0:
            return

        def expired(entry) -> bool:
            req: _Request = entry.item
            waited = now - req.admitted_s
            if timeout is not None and waited > timeout:
                return True
            return req.deadline_s is not None and waited >= req.deadline_s

        for entry in self._queue.remove_if(expired):
            req: _Request = entry.item
            waited = now - req.admitted_s
            error = QueueTimeoutError(
                f"request {req.request_id!r} waited "
                f"{waited:.4f} s without being dispatched",
                tenant=req.tenant,
                waited_s=waited,
            )
            self._finish(
                req,
                self._failed(
                    req, "QueueTimeoutError", str(error),
                    retry_after_s=self._drain_estimate_s(),
                    queue_wait_s=waited,
                    wall_elapsed_s=waited,
                ),
                extra=("queue_timeouts",),
            )

    def _process(self, reqs: list[_Request]) -> None:
        """Run admitted requests to termination as one job (dispatch
        thread only), then apply their metrics in one
        :meth:`ServiceMetrics.record` — one metrics-lock acquisition
        per launch, not four per request.  Tickets are fulfilled as
        each request finishes, so a reader can see a ticket done before
        the launch's counters land; counts are exact once dispatch is
        idle (after :meth:`run_pending` or :meth:`close`).
        """
        tally: list = []
        try:
            self._run(reqs, tally)
        finally:
            # the batched marker and per-bucket stats count coalesced
            # launches only; a lone request is not a batch of one
            bucket = self._bucket_label(reqs[0]) if len(reqs) > 1 else None
            self.metrics.record(tally, bucket, len(reqs))

    def _run(self, reqs: list[_Request], tally: list) -> None:
        """The body of :meth:`_process`; finished requests' counter keys
        and samples go to ``tally``.

        ``reqs`` is one request, or a head plus its coalesced siblings;
        their grids ride one scheduler :class:`StencilJob` (one launch,
        one simulated-clock deadline, whole-slab checkpoints).
        Wall-clock deadlines stay *per request*: an expired request is
        failed typed before dispatch and a late result is discarded for
        that request only.  Whole-job transient failures retry under the
        service ladder; a *per-grid* transient inside a partial job
        sends that request alone back through this ladder, so batching
        never shrinks a request's retry budget.
        """
        started = time.monotonic()
        batched = len(reqs) > 1
        markers = dict(batched=batched, batch_size=len(reqs) if batched else 0)
        level = self._degrade_level()
        engine = ENGINE_LADDER[level]
        checkpoint = self._checkpoint_for(reqs[0], level)
        retries = 0
        coalesced = False
        live = list(reqs)
        while True:
            still: list[_Request] = []
            for req in live:
                remaining = self._remaining_budget(req)
                if remaining is not None and remaining <= 0.0:
                    self._fail_deadline(
                        req, retries, started - req.admitted_s, tally
                    )
                else:
                    still.append(req)
            live = still
            if not live:
                return
            flights_before = self.artifacts.stats["flights"]
            head = live[0]
            job = StencilJob(
                # a request re-run alone after a partial batch gets a
                # fresh id: ".b" for coalesced launches, ".r" otherwise
                job_id=f"{head.request_id}.{'b' if batched else 'r'}{retries}",
                spec=head.spec,
                config=head.config,
                grids=tuple(r.grid for r in live),
                iterations=head.iterations,
                deadline_s=head.sim_deadline_s,
                checkpoint=checkpoint,
                watchdog_factor=head.watchdog_factor,
                engine=engine,
            )
            try:
                result = self.scheduler.execute_job(job)
            except ConfigurationError as err:
                for req in live:
                    self._finish(
                        req,
                        self._failed(
                            req, type(err).__name__, str(err),
                            **markers,
                            retries=retries,
                            queue_wait_s=started - req.admitted_s,
                        ),
                        tally,
                    )
                return
            coalesced = coalesced or (
                self.artifacts.stats["flights"] == flights_before
            )
            if result.status != "failed":
                break
            if result.error_types[0] not in RETRYABLE_ERRORS:
                break
            if retries >= MAX_RETRIES:
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
            tally.extend((req.tenant, ("retries",), None, 0.0) for req in live)
            time.sleep(delay)
            # renewed pressure reading: a retry may degrade further
            level = max(level, self._degrade_level())
            engine = ENGINE_LADDER[level]
            checkpoint = self._checkpoint_for(live[0], level)

        for req, out, error_type, error in zip(
            live, result.results, result.error_types, result.errors
        ):
            queue_wait = started - req.admitted_s
            elapsed = time.monotonic() - req.admitted_s
            if req.deadline_s is not None and elapsed > req.deadline_s:
                # late result discarded at the service layer too
                self._fail_deadline(req, retries, queue_wait, tally, late=True)
                continue
            if error_type in RETRYABLE_ERRORS and result.status == "partial":
                # per-grid transient inside a healthy job: this request
                # alone re-enters the retry ladder
                self._run([req], tally)
                continue
            degraded = level > 0 or (
                out is not None
                and result.engines[0] == FLOOR_ENGINE
                and self.scheduler.engine != FLOOR_ENGINE
                and engine != FLOOR_ENGINE
            )
            self._finish(
                req,
                ServiceResult(
                    request_id=req.request_id,
                    tenant=req.tenant,
                    status="completed" if out is not None else "failed",
                    result=out,
                    job_result=result,
                    error_type=error_type,
                    error=error,
                    degraded=degraded,
                    degraded_engine=result.engines[0] if degraded else None,
                    coalesced=coalesced,
                    **markers,
                    retries=retries,
                    queue_wait_s=queue_wait,
                    wall_elapsed_s=elapsed,
                ),
                tally,
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
        if frac >= DEGRADE_HARD_AT:
            return 2
        if frac >= DEGRADE_AT:
            return 1
        return 0

    def _checkpoint_for(
        self, req: _Request, level: int
    ) -> CheckpointPolicy | int | None:
        """Shrink the checkpoint cadence under pressure (never grow it)."""
        base = req.checkpoint
        if level == 0:
            return base
        k = DEGRADED_CHECKPOINT
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
        with self._lock:
            factor = 1.0 + RETRY_JITTER * float(self._rng.uniform(-1.0, 1.0))
        return base * factor

    def _estimate_job_s(self, req: _Request) -> float:
        """Modeled service time of one request (memoised per workload,
        at most :data:`ESTIMATE_MEMO` workloads)."""
        key = artifact_key(
            req.spec, req.config, self.scheduler.workers[0].device.board
        ) + (tuple(req.grid.shape), req.iterations)
        est = self._estimates.get(key)
        if est is None:
            if len(self._estimates) >= ESTIMATE_MEMO:
                self._estimates.clear()
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
        depth = self._queue.depth + len(self._inflight_reqs)
        if depth == 0:
            return MIN_RETRY_AFTER_S
        per_job = max(
            (self._estimate_job_s(entry.item) for entry in self._queue),
            default=0.0,
        )
        devices = max(1, len(self.scheduler.workers))
        # modeled kernel time is simulated; wall dispatch dominates, so
        # floor the hint at one scheduling quantum per queued job
        return max(depth * per_job / devices, depth * 1e-3, MIN_RETRY_AFTER_S)

    def _failed(
        self, req: _Request, error_type: str, error: str, **fields
    ) -> ServiceResult:
        """The one failed reply: ``req``'s typed error plus ``fields``;
        ``wall_elapsed_s`` defaults to the request's wall time so far.
        ``error_type`` must name a :data:`TYPED_ERRORS` class."""
        if error_type not in TYPED_ERRORS:
            raise ConfigurationError(
                f"failed reply for request {req.request_id!r} names "
                f"{error_type!r}, which is not a repro.errors class",
                param="error_type",
                value=error_type,
                constraint="error_type in TYPED_ERRORS",
            )
        fields.setdefault("wall_elapsed_s", time.monotonic() - req.admitted_s)
        return ServiceResult(
            req.request_id, req.tenant, "failed",
            error_type=error_type, error=error, **fields,
        )

    def _shed(self, req: _Request, message: str) -> None:
        """Fail a request taken off the queue with a typed
        :class:`ShedError` (lock held)."""
        err = ShedError(
            message,
            tenant=req.tenant,
            queued=self._queue.depth,
            capacity=self._queue.capacity,
            retry_after_s=self._drain_estimate_s(),
        )
        waited = time.monotonic() - req.admitted_s
        self._finish(
            req,
            self._failed(
                req, type(err).__name__, str(err),
                retry_after_s=err.retry_after_s,
                queue_wait_s=waited,
                wall_elapsed_s=waited,
            ),
            extra=("shed",),
        )

    def _fail_deadline(
        self,
        req: _Request,
        retries: int,
        queue_wait: float,
        tally: list,
        late: bool = False,
    ) -> None:
        elapsed = time.monotonic() - req.admitted_s
        why = (
            f"request {req.request_id!r}: elapsed {elapsed:.4f} s exceeds "
            f"wall deadline {req.deadline_s:.4f} s"
        )
        if late:
            why += "; late result discarded"
        self._finish(
            req,
            self._failed(
                req, "DeadlineExceededError", why,
                retries=retries,
                queue_wait_s=queue_wait,
                wall_elapsed_s=elapsed,
            ),
            tally,
            ("deadline_misses",),
        )

    def _finish(
        self,
        req: _Request,
        result: ServiceResult,
        tally: list | None = None,
        extra: tuple[str, ...] = (),
    ) -> None:
        """Fulfil ``req``'s ticket and count it (counter keys ``extra``
        plus those the result implies).  With a ``tally`` the count is
        appended there for the launch's one :meth:`ServiceMetrics
        .record`; without, it is recorded now."""
        if not req.ticket._fulfil(result):
            return  # already terminal (e.g. shed at close); first answer wins
        keys = extra + (("batched",) if result.batched else ())
        if result.status == "completed":
            keys += ("completed",)
            if result.degraded:
                keys += ("degraded",)
            if result.coalesced:
                keys += ("coalesced",)
        else:
            keys += ("failed",)
        outcome = (req.tenant, keys, result.wall_elapsed_s, result.queue_wait_s)
        if tally is None:
            self.metrics.record([outcome])
        else:
            tally.append(outcome)

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
