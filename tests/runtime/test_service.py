"""The multi-tenant serving layer (repro.runtime.service).

Admission ladder (queue -> shed-lowest-priority -> typed reject),
token-bucket quotas, wall-clock deadlines and queue timeouts, bounded
jittered retries, graceful degradation markers, request coalescing and
lifecycle.  Most tests run the service with ``start=False`` and drain
with :meth:`run_pending` so dispatch is deterministic; one test
exercises the real dispatch thread under concurrent tenant traffic.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.core import BlockingConfig, StencilSpec, make_grid, reference_run
from repro.errors import (
    ConfigurationError,
    QueueTimeoutError,
    SchedulerSaturatedError,
    ShedError,
)
from repro.faults import FaultPlan, TransferFault, arm
from repro.runtime import (
    CheckpointPolicy,
    RetryPolicy,
    ServicePolicy,
    StencilScheduler,
    StencilService,
    TenantQuota,
)
from repro.runtime.service import DEFAULT_QUOTA

SPEC = StencilSpec.star(2, 1)
CONFIG = BlockingConfig(dims=2, radius=1, bsize_x=64, parvec=4, partime=2)
GRID = make_grid((16, 64), "mixed", seed=7)
REF_4 = reference_run(GRID, SPEC, 4)


def numpy_service(
    devices: int = 1, *, policy: ServicePolicy | None = None, **sched_kwargs
) -> StencilService:
    """A synchronous service over numpy devices (fast, compiler-free)."""
    sched = StencilScheduler(devices=devices, engine="numpy", **sched_kwargs)
    return StencilService(sched, policy=policy, start=False)


def request(tenant: str = "alice", **kwargs) -> dict:
    kwargs.setdefault("iterations", 4)
    return dict(tenant=tenant, spec=SPEC, config=CONFIG, grid=GRID, **kwargs)


# -- happy path, coalescing, metrics ---------------------------------------- #


def test_single_request_is_bit_exact() -> None:
    svc = numpy_service()
    ticket = svc.submit(**request())
    assert not ticket.done
    assert svc.run_pending() == 1
    result = ticket.result(timeout=0)
    assert result.status == "completed"
    assert np.array_equal(result.result, REF_4)
    assert result.retries == 0 and not result.degraded
    svc.close()


def test_identical_requests_coalesce_on_one_artifact() -> None:
    # coalesce_max_batch=1 pins the *warm-artifact* marker across separate
    # dispatches; batched dispatch has its own suite (test_service_batch)
    svc = numpy_service(devices=2, policy=ServicePolicy(coalesce_max_batch=1))
    tickets = [svc.submit(**request(tenant=t)) for t in ("a", "b", "c", "d")]
    svc.run_pending()
    results = [t.result(0) for t in tickets]
    assert all(r.status == "completed" for r in results)
    assert [r.coalesced for r in results] == [False, True, True, True]
    assert svc.artifacts.snapshot()["flights"] == 1
    snap = svc.report()["tenants"]
    assert snap["b"]["coalesced"] == 1 and "p99_ms" in snap["b"]
    svc.close()


@pytest.mark.parametrize("max_batch", [1, 32], ids=["two-launches", "one-batch"])
def test_requests_on_one_grid_reply_unaliased(max_batch) -> None:
    """Two requests in flight on the same caller grid — each its own
    launch, or two grids of one batched launch — both reply bit-exact,
    with results that share no memory with each other or the input."""
    svc = numpy_service(policy=ServicePolicy(coalesce_max_batch=max_batch))
    grid = GRID.copy()
    tickets = [svc.submit(**{**request(t), "grid": grid}) for t in ("a", "b")]
    svc.run_pending()
    results = [t.result(0) for t in tickets]
    assert [r.batch_size for r in results] == [2 if max_batch > 1 else 0] * 2
    first, second = (r.result for r in results)
    assert np.array_equal(first, REF_4) and np.array_equal(second, REF_4)
    assert not np.shares_memory(first, second)
    assert not np.shares_memory(first, grid)
    assert not np.shares_memory(second, grid)
    assert grid.tobytes() == GRID.tobytes()
    svc.close()


def test_submit_batch_mixes_tickets_and_inline_rejections() -> None:
    svc = numpy_service(
        policy=ServicePolicy(max_queue_depth=2),
    )
    tickets = svc.submit_batch([request(), request(), request()])
    assert len(tickets) == 3
    assert not tickets[0].done and not tickets[1].done
    third = tickets[2].result(0)  # rejected synchronously, ticket pre-failed
    assert third.status == "failed" and third.error_type == "ShedError"
    assert third.retry_after_s is not None and third.retry_after_s > 0
    svc.run_pending()
    assert all(t.result(0).status == "completed" for t in tickets[:2])
    svc.close()


# -- admission ladder -------------------------------------------------------- #


def test_rate_quota_sheds_with_retry_after_hint() -> None:
    svc = numpy_service(
        policy=ServicePolicy(max_queue_depth=8),
    )
    svc.register_tenant("metered", TenantQuota(rate_per_s=1.0, burst=1.0))
    svc.submit(**request(tenant="metered"))
    with pytest.raises(ShedError) as exc:
        svc.submit(**request(tenant="metered"))
    err = exc.value
    assert isinstance(err, SchedulerSaturatedError)  # taxonomy compat
    assert err.tenant == "metered"
    assert err.retry_after_s is not None and 0 < err.retry_after_s <= 1.0
    assert "tenant=metered" in err.details()
    # the unmetered default tenant is unaffected
    svc.submit(**request(tenant="other"))
    svc.run_pending()
    assert svc.report()["tenants"]["metered"]["shed"] == 1
    svc.close()


def test_unregistered_tenants_share_the_default_quota(monkeypatch) -> None:
    built = []
    post_init = TenantQuota.__post_init__

    def counting(self) -> None:
        built.append(self)
        post_init(self)

    monkeypatch.setattr(TenantQuota, "__post_init__", counting)
    svc = numpy_service(policy=ServicePolicy(max_queue_depth=8))
    for tenant in ("a", "b", "a", "b"):
        svc.submit(**request(tenant=tenant))
    assert built == []  # no quota built per submit
    assert svc._quota("a") is svc._quota("b") is DEFAULT_QUOTA
    metered = TenantQuota(rate_per_s=1.0, burst=1.0)
    svc.register_tenant("a", metered)
    assert svc._quota("a") is metered
    assert svc._quota("b") is DEFAULT_QUOTA
    svc.run_pending()
    svc.close()


def test_full_queue_sheds_lowest_priority_for_higher() -> None:
    svc = numpy_service(policy=ServicePolicy(max_queue_depth=2))
    low_a = svc.submit(**request(priority=0))
    low_b = svc.submit(**request(tenant="bob", priority=0))
    vip = svc.submit(**request(tenant="vip", priority=5))
    shed = low_b.result(0)  # newest low-priority entry was displaced
    assert shed.status == "failed" and shed.error_type == "ShedError"
    assert "displaced" in shed.error
    svc.run_pending()
    assert low_a.result(0).status == "completed"
    assert vip.result(0).status == "completed"
    svc.close()


def test_full_queue_of_equal_priority_rejects_submitter() -> None:
    svc = numpy_service(policy=ServicePolicy(max_queue_depth=2))
    svc.submit(**request(priority=1))
    svc.submit(**request(priority=1))
    with pytest.raises(ShedError) as exc:
        svc.submit(**request(priority=1))
    assert exc.value.queued == 2 and exc.value.capacity == 2
    svc.run_pending()
    svc.close()


# -- timeouts and deadlines -------------------------------------------------- #


def test_queue_timeout_fails_typed_with_waited_s() -> None:
    svc = numpy_service(
        policy=ServicePolicy(max_queue_depth=4, queue_timeout_s=0.01),
    )
    ticket = svc.submit(**request())
    time.sleep(0.03)
    svc.run_pending()
    result = ticket.result(0)
    assert result.status == "failed"
    assert result.error_type == "QueueTimeoutError"
    assert result.queue_wait_s >= 0.01
    assert result.retry_after_s is not None
    assert svc.report()["tenants"]["alice"]["queue_timeouts"] == 1
    svc.close()


def test_wall_deadline_exhausted_in_queue_fails_typed() -> None:
    svc = numpy_service(policy=ServicePolicy(max_queue_depth=4))
    ticket = svc.submit(**request(deadline_s=0.01))
    time.sleep(0.03)
    svc.run_pending()
    result = ticket.result(0)
    assert result.status == "failed"
    assert result.error_type in ("QueueTimeoutError", "DeadlineExceededError")
    svc.close()


def test_sim_deadline_propagates_to_scheduler() -> None:
    svc = numpy_service()
    ticket = svc.submit(**request(sim_deadline_s=1e-12))
    svc.run_pending()
    result = ticket.result(0)
    assert result.status == "failed"
    assert result.error_type == "DeadlineExceededError"
    assert "not dispatched" in result.error  # failed fast on the model
    svc.close()


def test_deadline_validation() -> None:
    svc = numpy_service()
    with pytest.raises(ConfigurationError):
        svc.submit(**request(deadline_s=0.0))
    svc.close()


def test_non_finite_deadlines_rejected_at_admission() -> None:
    svc = numpy_service()
    for bad in (float("nan"), float("inf"), float("-inf"), -1.0):
        with pytest.raises(ConfigurationError) as exc:
            svc.submit(**request(deadline_s=bad))
        assert exc.value.param == "deadline_s"
        with pytest.raises(ConfigurationError) as exc:
            svc.submit(**request(sim_deadline_s=bad))
        assert exc.value.param == "sim_deadline_s"
    with pytest.raises(ConfigurationError):
        svc.submit(**request(sim_deadline_s=0.0))
    # nothing was admitted: the queue stayed empty
    assert svc.run_pending() == 0
    svc.close()


# -- bounded retries --------------------------------------------------------- #


def test_transient_fault_is_retried_within_budget() -> None:
    plan = FaultPlan(
        seed=5, faults=(TransferFault(at_transfer=0, direction="write", mode="fail"),)
    )
    svc = numpy_service(
        devices=1,
        policy=ServicePolicy(max_queue_depth=4, max_retries=2, retry_jitter=0.0),
        retry_policy=RetryPolicy(max_retries=0),
    )
    ticket = svc.submit(**request())
    with arm(plan):
        svc.run_pending()
    result = ticket.result(0)
    assert result.status == "completed"
    assert result.retries == 1  # one service-level re-dispatch healed it
    assert np.array_equal(result.result, REF_4)
    assert svc.report()["tenants"]["alice"]["retries"] == 1
    svc.close()


def test_retry_backoff_never_exceeds_deadline_budget() -> None:
    plan = FaultPlan(
        seed=5, faults=(TransferFault(at_transfer=0, direction="write", mode="fail"),)
    )
    # backoff (10 s) cannot land inside the ~1 s remaining budget:
    # the service must fail typed *now* instead of sleeping past it
    svc = numpy_service(
        devices=1,
        policy=ServicePolicy(
            max_queue_depth=4,
            max_retries=3,
            retry_backoff_s=10.0,
            retry_jitter=0.0,
        ),
        retry_policy=RetryPolicy(max_retries=0),
    )
    ticket = svc.submit(**request(deadline_s=1.0))
    start = time.monotonic()
    with arm(plan):
        svc.run_pending()
    elapsed = time.monotonic() - start
    result = ticket.result(0)
    assert result.status == "failed"
    assert result.error_type == "FaultDetectedError"
    assert result.retries == 0
    assert elapsed < 1.0  # did not sleep the 10 s backoff
    svc.close()


def test_non_transient_failures_are_not_retried() -> None:
    svc = numpy_service(policy=ServicePolicy(max_queue_depth=4, max_retries=3))
    ticket = svc.submit(**request(sim_deadline_s=1e-12))
    svc.run_pending()
    result = ticket.result(0)
    assert result.error_type == "DeadlineExceededError"
    assert result.retries == 0
    svc.close()


# -- graceful degradation ---------------------------------------------------- #


def test_pressure_degrades_engine_with_explicit_marker() -> None:
    # coalesce_max_batch=1: the test pins the per-job pressure ladder easing
    # as the queue drains; one batched launch would see one pressure
    # reading for all eight requests
    svc = numpy_service(
        devices=1,
        policy=ServicePolicy(
            max_queue_depth=8, degrade_at=0.25, degrade_hard_at=0.75,
            coalesce_max_batch=1,
        ),
    )
    tickets = [svc.submit(**request(tenant=f"t{i}")) for i in range(8)]
    svc.run_pending()
    results = [t.result(0) for t in tickets]
    assert all(r.status == "completed" for r in results)
    assert all(np.array_equal(r.result, REF_4) for r in results)
    # the first dispatches saw a deep queue: hard-degraded to numpy
    assert results[0].degraded and results[0].degraded_engine == "numpy"
    # pressure fell as the queue drained; the tail ran at full tier
    assert not results[-1].degraded
    assert any(
        svc.report()["tenants"][f"t{i}"]["degraded"] == 1 for i in range(4)
    )
    svc.close()


def test_degraded_checkpoint_cadence_shrinks_not_grows() -> None:
    svc = numpy_service(policy=ServicePolicy(degraded_checkpoint=2))

    class Req:
        checkpoint = None

    assert svc._checkpoint_for(Req, 0) is None
    assert svc._checkpoint_for(Req, 1) == 2
    Req.checkpoint = 8
    assert svc._checkpoint_for(Req, 2) == 2
    Req.checkpoint = 1  # already tighter than the degraded cadence
    assert svc._checkpoint_for(Req, 2) == 1
    Req.checkpoint = CheckpointPolicy(every=16, max_rollbacks=4)
    shrunk = svc._checkpoint_for(Req, 1)
    assert shrunk.every == 2 and shrunk.max_rollbacks == 4
    svc.close()


def _serve_at_level(monkeypatch, engine: str, level: int):
    """One request served with the degrade level held at ``level``;
    returns the result and the job the scheduler was handed."""
    svc = StencilService(
        StencilScheduler(devices=1, engine=engine),
        policy=ServicePolicy(coalesce_max_batch=1, degraded_checkpoint=2),
        start=False,
    )
    jobs = []
    execute = svc.scheduler.execute_job

    def spy(job):
        jobs.append(job)
        return execute(job)

    monkeypatch.setattr(svc, "_degrade_level", lambda: level)
    monkeypatch.setattr(svc.scheduler, "execute_job", spy)
    ticket = svc.submit(**request())
    svc.run_pending()
    svc.close()
    result = ticket.result(0)
    assert result.status == "completed"
    assert np.array_equal(result.result, REF_4)
    (job,) = jobs
    return result, job


@pytest.mark.parametrize("engine", ["auto", "numpy"])
def test_soft_degrade_keeps_the_schedulers_engine(monkeypatch, engine) -> None:
    # level 1 must neither pin a slower engine under pressure nor
    # override an operator's numpy choice upward: it only shrinks the
    # checkpoint cadence
    result, job = _serve_at_level(monkeypatch, engine, level=1)
    assert job.engine is None and job.checkpoint == 2
    assert result.job_result.engines == (engine,)
    assert result.degraded


def test_hard_degrade_pins_numpy(monkeypatch) -> None:
    result, job = _serve_at_level(monkeypatch, "auto", level=2)
    assert job.engine == "numpy" and job.checkpoint == 2
    assert result.degraded and result.degraded_engine == "numpy"


# -- lifecycle --------------------------------------------------------------- #


def test_close_without_drain_sheds_queued_typed() -> None:
    svc = numpy_service(policy=ServicePolicy(max_queue_depth=4))
    tickets = [svc.submit(**request()) for _ in range(3)]
    svc.close(drain=False)
    for ticket in tickets:
        result = ticket.result(0)
        assert result.status == "failed" and result.error_type == "ShedError"
        assert "shutting down" in result.error
    with pytest.raises(ConfigurationError):
        svc.submit(**request())
    svc.close()  # idempotent


def test_dispatch_thread_serves_concurrent_tenants() -> None:
    sched = StencilScheduler(devices=2, engine="numpy")
    svc = StencilService(
        sched,
        policy=ServicePolicy(max_queue_depth=32),
        quotas={"a": TenantQuota(weight=3), "b": TenantQuota(weight=1)},
    )
    tickets: dict[str, list] = {"a": [], "b": [], "c": []}

    def client(tenant: str) -> None:
        for _ in range(4):
            tickets[tenant].append(svc.submit(**request(tenant=tenant)))

    threads = [threading.Thread(target=client, args=(t,)) for t in tickets]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for tenant, batch in tickets.items():
        for ticket in batch:
            result = ticket.result(timeout=60.0)
            assert result.status == "completed", (tenant, result.error)
            assert np.array_equal(result.result, REF_4)
    svc.close()
    report = svc.report()
    assert sum(t["completed"] for t in report["tenants"].values()) == 12
    assert report["artifacts"]["flights"] == 1  # all 12 rode one artifact


# -- bounded metrics reservoir (ServiceMetrics) ------------------------------ #


def test_metrics_reservoir_is_bounded() -> None:
    from repro.runtime.service import ServiceMetrics

    m = ServiceMetrics(window=4)
    for i in range(100):
        m.count("t", "completed")
        m.observe("t", latency_s=float(i), queue_wait_s=0.0)
    snap = m.snapshot()["t"]
    assert snap["latency_samples"] == 4
    # only the 4 most recent samples (96..99) survive in the window
    assert snap["p50_ms"] >= 96_000.0


def test_metrics_zero_samples_emit_no_percentiles() -> None:
    from repro.runtime.service import ServiceMetrics

    m = ServiceMetrics()
    m.count("t", "submitted")
    snap = m.snapshot()["t"]
    assert "p50_ms" not in snap and "p99_ms" not in snap


def test_metrics_single_sample_pins_percentiles() -> None:
    from repro.runtime.service import ServiceMetrics

    m = ServiceMetrics()
    m.count("t", "completed")
    m.observe("t", latency_s=0.25, queue_wait_s=0.0)
    snap = m.snapshot()["t"]
    assert snap["p50_ms"] == snap["p99_ms"] == pytest.approx(250.0)
    assert snap["latency_samples"] == 1


def test_metrics_window_validated_and_policy_threads_through() -> None:
    from repro.runtime.service import ServiceMetrics

    with pytest.raises(ConfigurationError):
        ServiceMetrics(window=0)
    with pytest.raises(ConfigurationError):
        ServicePolicy(metrics_window=0)
    svc = numpy_service(policy=ServicePolicy(metrics_window=7))
    assert svc.metrics.window == 7
    svc.close()


def test_drain_estimate_never_hands_out_zero_backoff() -> None:
    from repro.runtime.admission import MIN_RETRY_AFTER_S

    svc = numpy_service()
    assert svc._drain_estimate_s() >= MIN_RETRY_AFTER_S
    svc.close()
