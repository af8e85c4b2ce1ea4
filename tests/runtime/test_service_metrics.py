"""Service metrics on a deterministic run through every outcome.

One ``StencilService(start=False)`` on a hand-stepped wall clock serves
a coalesced batch, a quota shed, a queue timeout, a wall-deadline miss,
a retried transient fault and a per-grid fault inside a batch.  The
counters, latency figures and per-bucket stats it reports are pinned to
literal values: :meth:`StencilService._process` applies a launch's
bookkeeping in one :meth:`ServiceMetrics.record`, and the figures must
read exactly as when every request was counted on its own.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    BlockingConfig,
    FPGAAccelerator,
    StencilSpec,
    make_grid,
    reference_run,
)
from repro.errors import ShedError
from repro.faults import FaultPlan, SEUFault, TransferFault, arm
from repro.runtime import (
    RetryPolicy,
    ServicePolicy,
    StencilScheduler,
    StencilService,
    TenantQuota,
)
from repro.runtime import service as service_module

SPEC = StencilSpec.star(2, 1)
CONFIG = BlockingConfig(dims=2, radius=1, bsize_x=32, parvec=4, partime=2)
SHAPE = (12, 20)
ITERS = 2
GRIDS = [make_grid(SHAPE, "mixed", seed=60 + i) for i in range(4)]
TOUCHES_PER_GRID = (
    FPGAAccelerator(SPEC, CONFIG, engine="numpy").run(GRIDS[0], ITERS)[1]
    .blocks_per_pass
) * (1 + ITERS)


class SteppedClock:
    """Stands in for the service module's ``time``: the wall clock moves
    only when the test (or a service retry's backoff sleep) moves it."""

    def __init__(self) -> None:
        self.now = 100.0

    def monotonic(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds


def serve_every_outcome(monkeypatch) -> tuple[StencilService, list]:
    """The run; returns the service and ``(ticket, grid, error_type)``
    for every admitted request (``error_type`` ``None``: completes)."""
    clock = SteppedClock()
    monkeypatch.setattr(service_module, "time", clock)
    sched = StencilScheduler(
        devices=1, engine="numpy", retry_policy=RetryPolicy(max_retries=0)
    )
    svc = StencilService(
        sched,
        policy=ServicePolicy(max_queue_depth=16),
        quotas={"metered": TenantQuota(rate_per_s=1.0, burst=1.0)},
        start=False,
    )

    admitted: list = []

    def submit(tenant: str, g: int = 0, error_type=None, **kwargs):
        ticket = svc.submit(tenant, SPEC, CONFIG, GRIDS[g], ITERS, **kwargs)
        admitted.append((ticket, GRIDS[g], error_type))

    # a cold coalesced batch (it builds the program), then a warm one
    for tenant in ("a", "b", "a"):
        submit(tenant)
    clock.sleep(0.25)
    assert svc.run_pending() == 3
    for tenant in ("b", "a"):
        submit(tenant, g=1)
    clock.sleep(0.125)
    assert svc.run_pending() == 2

    # a quota shed: the metered tenant's bucket holds one token
    submit("metered")
    with pytest.raises(ShedError):
        submit("metered")
    clock.sleep(0.5)
    assert svc.run_pending() == 1

    # a queue timeout: the wall deadline runs out before dispatch
    submit("c", deadline_s=0.5, error_type="QueueTimeoutError")
    clock.sleep(1.0)
    assert svc.run_pending() == 0  # the sweep failed it, nothing ran

    # a wall-deadline miss: the launch itself outlasts the deadline
    execute = sched.execute_job

    def slow_execute(job):
        clock.sleep(1.0)
        return execute(job)

    monkeypatch.setattr(sched, "execute_job", slow_execute)
    submit("d", deadline_s=0.5, error_type="DeadlineExceededError")
    assert svc.run_pending() == 1
    monkeypatch.setattr(sched, "execute_job", execute)

    # a retried transient fault: the first launch's write fails
    submit("e", g=2)
    plan = FaultPlan(
        seed=5,
        faults=(TransferFault(at_transfer=0, direction="write", mode="fail"),),
    )
    with arm(plan):
        assert svc.run_pending() == 1

    # a per-grid fault in a batch: that request alone re-runs
    for tenant, g in zip("fab", (0, 1, 3)):
        submit(tenant, g=g)
    plan = FaultPlan(
        seed=21,
        faults=(SEUFault(at_touch=TOUCHES_PER_GRID + 1, site="block-buffer"),),
    )
    clock.sleep(0.0625)
    with arm(plan) as inj:
        assert svc.run_pending() == 3
    assert len(inj.fired) == 1
    return svc, admitted


def test_every_outcome_counts_as_before(monkeypatch) -> None:
    svc, _ = serve_every_outcome(monkeypatch)
    try:
        assert svc.metrics.snapshot() == SNAPSHOT
        assert svc.metrics.bucket_snapshot() == BUCKETS
    finally:
        svc.close()


def test_every_outcome_is_bit_exact_or_typed(monkeypatch) -> None:
    svc, admitted = serve_every_outcome(monkeypatch)
    svc.close()
    for ticket, grid, error_type in admitted:
        reply = ticket.result(0)
        assert reply.error_type == error_type, reply.error
        if error_type is None:
            assert np.array_equal(reply.result, reference_run(grid, SPEC, ITERS))


def _tenant(completed=0, failed=0, **counts) -> dict:
    keys = ("submitted", "completed", "failed", "shed", "queue_timeouts",
            "deadline_misses", "degraded", "coalesced", "batched", "retries")
    entry = dict.fromkeys(keys, 0)
    entry.update(completed=completed, failed=failed, **counts)
    return entry


#: ``metrics.snapshot()`` of the run, as the per-request bookkeeping
#: (four ``ServiceMetrics.count`` calls and an ``observe`` per request)
#: reported it.
SNAPSHOT = {
    "a": _tenant(
        submitted=4, completed=4, coalesced=2, batched=3, p50_ms=187.5,
        p99_ms=250.0, latency_samples=4, mean_queue_wait_ms=171.875,
    ),
    "b": _tenant(
        submitted=3, completed=3, coalesced=2, batched=3, p50_ms=125.0,
        p99_ms=247.5, latency_samples=3,
        mean_queue_wait_ms=145.83333333333334,
    ),
    "metered": _tenant(
        submitted=1, completed=1, shed=1, coalesced=1, p50_ms=500.0,
        p99_ms=500.0, latency_samples=1, mean_queue_wait_ms=500.0,
    ),
    "c": _tenant(
        submitted=1, failed=1, queue_timeouts=1, p50_ms=1000.0,
        p99_ms=1000.0, latency_samples=1, mean_queue_wait_ms=1000.0,
    ),
    "d": _tenant(
        submitted=1, failed=1, deadline_misses=1, p50_ms=1000.0,
        p99_ms=1000.0, latency_samples=1, mean_queue_wait_ms=0.0,
    ),
    # the retry's backoff: 5 ms times the first jitter factor the
    # service's seeded generator draws
    "e": _tenant(
        submitted=1, completed=1, coalesced=1, retries=1,
        p50_ms=4.937016462562838, p99_ms=4.937016462562838,
        latency_samples=1, mean_queue_wait_ms=0.0,
    ),
    "f": _tenant(
        submitted=1, completed=1, coalesced=1, batched=1, p50_ms=62.5,
        p99_ms=62.5, latency_samples=1, mean_queue_wait_ms=62.5,
    ),
}

BUCKETS = {
    "2d-r1/12x20/bs32xNone-pv4-pt2/it2": {
        "batches": 3, "requests": 8, "max_batch_size": 3,
        "mean_batch_size": 2.667,
    },
}
