"""Exception types used across the :mod:`repro` package.

Exception taxonomy
------------------

Every error raised by this package derives from :class:`ReproError`;
callers that need structured context look for a ``details()`` method
(present on the classes marked below).  The full tree::

    ReproError
    ├── ConfigurationError          (param/value/constraint, details())
    │   └── ResourceExceededError
    ├── SimulationError
    │   └── FaultDetectedError
    │       └── WatchdogTimeoutError
    ├── SchedulerError
    │   ├── SchedulerSaturatedError (queued/capacity/tenant/retry_after_s,
    │   │   │                        details())
    │   │   ├── ShedError
    │   │   └── QueueTimeoutError   (adds waited_s)
    │   ├── DeadlineExceededError
    │   └── SchedulerShutdownError
    └── ValidationError

Which layer raises what:

* **configuration** (:class:`ConfigurationError`,
  :class:`ResourceExceededError`) — rejected before anything executes:
  invalid design points, designs that do not fit the device, invalid
  API arguments (including running a closed accelerator).
* **detection** (:class:`FaultDetectedError`,
  :class:`WatchdogTimeoutError`) — a runtime integrity check caught
  corrupted, lost or stalled data; the retry/rollback machinery treats
  these as transient.
* **overload** (:class:`SchedulerSaturatedError`, :class:`ShedError`,
  :class:`QueueTimeoutError`) — bounded-queue backpressure from the
  serving layer; these are *typed rejections*, carry
  a ``retry_after_s`` hint when one can be derived from the performance
  model, and never imply data loss.
* **deadline** (:class:`DeadlineExceededError`) — a job's time budget
  (simulated clock at the scheduler, wall clock at the service) cannot
  be or was not met; late results are discarded, never silently late.
* **shutdown** (:class:`SchedulerShutdownError`) — a request still in
  flight when :meth:`~repro.runtime.service.StencilService.close` stopped
  waiting for it; every abandoned request gets this typed failure
  instead of being dropped silently.
* **validation** (:class:`ValidationError`) — two engines disagreed
  numerically.

The same table is rendered for users in the README ("Error taxonomy").
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class ConfigurationError(ReproError):
    """A design or model parameter is invalid or inconsistent.

    Raised, for example, when a blocking configuration violates the
    constraints of the paper (eq. 2 requires ``bsize > 2 * partime * rad``)
    or when a device cannot fit the requested degree of parallelism.

    Alongside the human-readable message, raise sites may attach the
    structured locus of the violation — ``param`` (the offending
    parameter name), ``value`` (what it was) and ``constraint`` (the rule
    it broke) — so tooling such as :mod:`repro.lint` and the experiments
    runner can render precise diagnostics without string-matching the
    message.  All three default to ``None`` for sites that predate them.
    """

    def __init__(
        self,
        message: str = "",
        *,
        param: str | None = None,
        value: object = None,
        constraint: str | None = None,
    ):
        super().__init__(message)
        self.param = param
        self.value = value
        self.constraint = constraint

    def details(self) -> str:
        """Render the structured fields (empty string when unset)."""
        parts = []
        if self.param is not None:
            parts.append(f"param={self.param}")
        if self.value is not None:
            parts.append(f"value={self.value!r}")
        if self.constraint is not None:
            parts.append(f"constraint: {self.constraint}")
        return "; ".join(parts)


class ResourceExceededError(ConfigurationError):
    """A design does not fit on the target FPGA device (DSPs, BRAM, logic)."""


class SimulationError(ReproError):
    """The functional or cycle simulator reached an inconsistent state."""


class FaultDetectedError(SimulationError):
    """A runtime integrity check caught corrupted or lost data.

    Raised by the detection machinery of :mod:`repro.faults` — block
    checksum mismatches, buffer-CRC failures on PCIe transfers, DRAM
    scrub failures, or a power sensor returning no samples.  The host
    runtime's retry path treats it as transient and re-attempts the
    operation (see :class:`repro.runtime.host.RetryPolicy`).
    """


class WatchdogTimeoutError(FaultDetectedError):
    """A watchdog expired: a stalled channel, a kernel running past its
    deadline, or a cycle simulation that failed to converge."""


class SchedulerError(ReproError):
    """Base class for errors raised by the scheduler and serving layers."""


class SchedulerSaturatedError(SchedulerError):
    """A bounded admission queue is full (overload backpressure).

    The base of the serving layer's two rejections, :class:`ShedError`
    and :class:`QueueTimeoutError`, which it raises instead of letting
    queued work grow without bound; callers are expected to back off
    and resubmit.

    Structured context, following the :class:`ConfigurationError`
    ``details()`` pattern: ``queued`` (jobs waiting when the rejection
    happened), ``capacity`` (the admission bound), ``tenant`` (whose
    request was rejected, when the layer is multi-tenant) and
    ``retry_after_s`` (a backoff hint, derived from the performance
    model's drain estimate when one is available).  All default to
    ``None`` for raise sites that predate them.
    """

    def __init__(
        self,
        message: str = "",
        *,
        queued: int | None = None,
        capacity: int | None = None,
        tenant: str | None = None,
        retry_after_s: float | None = None,
    ):
        super().__init__(message)
        self.queued = queued
        self.capacity = capacity
        self.tenant = tenant
        self.retry_after_s = retry_after_s

    def details(self) -> str:
        """Render the structured fields (empty string when unset)."""
        parts = []
        if self.tenant is not None:
            parts.append(f"tenant={self.tenant}")
        if self.queued is not None:
            parts.append(f"queued={self.queued}")
        if self.capacity is not None:
            parts.append(f"capacity={self.capacity}")
        if self.retry_after_s is not None:
            parts.append(f"retry_after_s={self.retry_after_s:.4f}")
        return "; ".join(parts)


class ShedError(SchedulerSaturatedError):
    """The serving layer refused (or evicted) a job to protect itself.

    Raised synchronously by :meth:`repro.runtime.service.StencilService
    .submit` when a tenant exceeds its token-bucket quota or the bounded
    weighted-fair queue is full, and delivered asynchronously through a
    job's ticket when an already-queued job is shed to admit
    higher-priority work (the ``shed-lowest-priority`` rung of the
    overload ladder).  Always a *typed rejection*: the job never ran and
    no partial state exists.  ``retry_after_s`` carries the service's
    drain estimate so well-behaved clients can back off precisely.
    """


class QueueTimeoutError(SchedulerSaturatedError):
    """A queued job waited past its budget and was never dispatched.

    Raised through a job's ticket when its wall-clock wait in the
    service queue exceeded ``queue_timeout_s`` (or consumed its whole
    deadline budget before dispatch).  ``waited_s`` records the actual
    wait; the job never started executing.
    """

    def __init__(
        self,
        message: str = "",
        *,
        waited_s: float | None = None,
        **kwargs,
    ):
        super().__init__(message, **kwargs)
        self.waited_s = waited_s

    def details(self) -> str:
        base = super().details()
        if self.waited_s is None:
            return base
        extra = f"waited_s={self.waited_s:.4f}"
        return f"{base}; {extra}" if base else extra


class DeadlineExceededError(SchedulerError):
    """A job's per-job deadline cannot be or was not met.

    Raised either before dispatch (the modeled execution time already
    exceeds the deadline) or after execution (retries and rollbacks
    pushed the elapsed time past the budget).  The scheduler enforces it
    on the simulated clock, the serving layer on the wall clock; in both
    layers a late result is discarded: a job never *silently* misses its
    deadline.
    """


class SchedulerShutdownError(SchedulerError):
    """The service was closed with this request still in flight.

    Delivered through the ticket of every request that
    :meth:`repro.runtime.service.StencilService.close` stopped waiting
    for (its drain timed out mid-launch).  The request's result is
    discarded, even if its launch later completes; resubmitting to a
    live service is safe.
    """


class ValidationError(ReproError):
    """Numerical validation between two engines failed."""
