"""Fault-tolerant multi-device scheduler (repro.runtime.scheduler)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import BlockingConfig, StencilSpec, make_grid, reference_run
from repro.errors import (
    ConfigurationError,
    SchedulerSaturatedError,
)
from repro.faults import FaultPlan, SEUFault, TransferFault, arm
from repro.runtime import (
    CheckpointPolicy,
    CircuitBreaker,
    HostDevice,
    RetryPolicy,
    StencilJob,
    StencilScheduler,
)

SPEC = StencilSpec.star(2, 1)
CONFIG = BlockingConfig(dims=2, radius=1, bsize_x=64, parvec=4, partime=2)
GRID = make_grid((16, 64), "mixed", seed=7)
REF_4 = reference_run(GRID, SPEC, 4)


def job(job_id: str, **kwargs) -> StencilJob:
    kwargs.setdefault("iterations", 4)
    return StencilJob(job_id=job_id, spec=SPEC, config=CONFIG, grids=(GRID,), **kwargs)


# -- validation ------------------------------------------------------------- #


def test_job_validation() -> None:
    with pytest.raises(ConfigurationError):
        job("j", iterations=0)
    with pytest.raises(ConfigurationError):
        job("j", deadline_s=0.0)
    with pytest.raises(ConfigurationError):
        job("j", watchdog_factor=-1.0)


def test_scheduler_validation() -> None:
    with pytest.raises(ConfigurationError):
        StencilScheduler(devices=0)
    with pytest.raises(ConfigurationError):
        StencilScheduler(devices=[])
    with pytest.raises(ConfigurationError):
        StencilScheduler(max_pending=0)
    with pytest.raises(ConfigurationError):
        StencilScheduler(quarantine_threshold=0.0)
    with pytest.raises(ConfigurationError):
        StencilScheduler(engine="simd")
    with pytest.raises(ConfigurationError):
        StencilScheduler(max_dispatches=0)
    with pytest.raises(ConfigurationError):
        CircuitBreaker(threshold=0)


def test_duplicate_job_id_rejected() -> None:
    sched = StencilScheduler(devices=1)
    sched.submit(job("same"))
    with pytest.raises(ConfigurationError):
        sched.submit(job("same"))


# -- admission control ------------------------------------------------------- #


def test_bounded_admission_saturates() -> None:
    sched = StencilScheduler(devices=1, max_pending=2)
    sched.submit(job("a"))
    sched.submit(job("b"))
    assert sched.pending == 2
    with pytest.raises(SchedulerSaturatedError):
        sched.submit(job("c"))
    # draining the queue restores admission
    results = sched.run_until_idle()
    assert [r.status for r in results] == ["completed", "completed"]
    sched.submit(job("c"))
    assert sched.pending == 1


# -- dispatch --------------------------------------------------------------- #


def test_jobs_balance_across_devices() -> None:
    sched = StencilScheduler(devices=2)
    for i in range(4):
        sched.submit(job(f"j{i}"))
    results = sched.run_until_idle()
    assert all(r.status == "completed" for r in results)
    assert all(np.array_equal(r.result, REF_4) for r in results)
    # min-clock dispatch alternates identical jobs across identical boards
    assert [r.device for r in results] == [0, 1, 0, 1]
    report = sched.device_report()
    assert report[0]["clock_s"] == pytest.approx(report[1]["clock_s"])


def test_explicit_device_list_accepted() -> None:
    sched = StencilScheduler(devices=[HostDevice(), HostDevice()])
    sched.submit(job("j"))
    results = sched.run_until_idle()
    assert results[0].status == "completed"


def test_results_cover_every_admitted_job() -> None:
    sched = StencilScheduler(devices=2)
    ids = [f"j{i}" for i in range(5)]
    for jid in ids:
        sched.submit(job(jid))
    results = sched.run_until_idle()
    assert sorted(r.job_id for r in results) == sorted(ids)


# -- deadlines --------------------------------------------------------------- #


def test_deadline_fail_fast_before_dispatch() -> None:
    sched = StencilScheduler(devices=1)
    sched.submit(job("late", deadline_s=1e-12))
    (result,) = sched.run_until_idle()
    assert result.status == "failed"
    assert result.error_type == "DeadlineExceededError"
    assert "not dispatched" in result.error
    assert result.result is None
    assert result.elapsed_s == 0.0  # nothing ran, nothing charged


def test_deadline_missed_after_retries_discards_result() -> None:
    # a clean run fits the deadline; the injected transfer corruption
    # forces a retry whose 1 s backoff blows the budget
    plan = FaultPlan(
        seed=3, faults=(TransferFault(direction="write", mode="corrupt"),)
    )
    sched = StencilScheduler(
        devices=1,
        retry_policy=RetryPolicy(max_retries=2, backoff_s=1.0),
    )
    sched.submit(job("tight", deadline_s=0.5))
    with arm(plan):
        (result,) = sched.run_until_idle()
    assert result.status == "failed"
    assert result.error_type == "DeadlineExceededError"
    assert result.result is None  # late results are discarded, never returned
    assert result.elapsed_s > 0.5


def test_generous_deadline_met() -> None:
    sched = StencilScheduler(devices=1)
    sched.submit(job("ok", deadline_s=10.0))
    (result,) = sched.run_until_idle()
    assert result.status == "completed"
    assert result.elapsed_s <= 10.0


# -- health tracking / quarantine -------------------------------------------- #


def test_faulty_device_quarantined_then_probed_back() -> None:
    sched = StencilScheduler(
        devices=1,
        retry_policy=RetryPolicy(max_retries=2),
        quarantine_threshold=0.4,
        min_health_samples=1,
    )
    # retried-but-recovered job still counts as a fault for health
    plan = FaultPlan(seed=4, faults=(TransferFault(direction="write", mode="corrupt"),))
    sched.submit(job("faulty"))
    with arm(plan):
        (r1,) = sched.run_until_idle()
    assert r1.status == "completed"
    worker = sched.workers[0]
    assert worker.quarantined
    assert any("quarantined" in e for e in worker.events)

    # with every device quarantined the scheduler probes immediately;
    # the clean probe re-admits the device and the job completes there
    sched.submit(job("next"))
    (r2,) = sched.run_until_idle()
    assert r2.status == "completed"
    assert not worker.quarantined
    assert any("re-admitted" in e for e in worker.events)


def test_quarantined_device_sits_out_until_probe_due() -> None:
    sched = StencilScheduler(devices=2, probe_after_jobs=2)
    sick = sched.workers[0]
    sick.quarantined = True
    sick.quarantined_at_job = 0
    for i in range(4):
        sched.submit(job(f"j{i}"))
    results = sched.run_until_idle()
    assert all(r.status == "completed" for r in results)
    # the first two jobs may only use the healthy device; once two jobs
    # completed, the probe re-admits device 0
    assert results[0].device == 1
    assert results[1].device == 1
    assert not sick.quarantined
    assert 0 in {r.device for r in results[2:]}


def test_failed_probe_keeps_device_quarantined() -> None:
    sched = StencilScheduler(devices=1, retry_policy=RetryPolicy(max_retries=0))
    worker = sched.workers[0]
    worker.quarantined = True
    worker.quarantined_at_job = 0
    # the probe's write transfer fails outright: still sick
    plan = FaultPlan(seed=5, faults=(TransferFault(direction="write", mode="fail"),))
    with arm(plan):
        sched._probe(worker)
    assert worker.quarantined
    assert any("probe failed" in e for e in worker.events)


# -- re-dispatch -------------------------------------------------------------- #


def test_fault_failure_redispatches_to_another_device() -> None:
    # retries exhausted on device 0; the second dispatch lands on device 1
    # after the one-shot fault was consumed, and completes bit-exact
    plan = FaultPlan(seed=6, faults=(TransferFault(direction="write", mode="fail"),))
    sched = StencilScheduler(devices=2, retry_policy=RetryPolicy(max_retries=0))
    sched.submit(job("bounced"))
    with arm(plan):
        (result,) = sched.run_until_idle()
    assert result.status == "completed"
    assert result.dispatches == 2
    assert result.device == 1
    assert np.array_equal(result.result, REF_4)


def test_single_device_fault_failure_is_final() -> None:
    plan = FaultPlan(seed=7, faults=(TransferFault(direction="write", mode="fail"),))
    sched = StencilScheduler(devices=1, retry_policy=RetryPolicy(max_retries=0))
    sched.submit(job("doomed"))
    with arm(plan):
        (result,) = sched.run_until_idle()
    assert result.status == "failed"
    assert result.error_type == "FaultDetectedError"
    assert result.dispatches == 1


def test_deadline_failures_are_never_redispatched() -> None:
    sched = StencilScheduler(devices=2)
    sched.submit(job("late", deadline_s=1e-12))
    (result,) = sched.run_until_idle()
    assert result.status == "failed"
    assert result.dispatches == 1  # an identical board models identical time


# -- degraded mode (circuit breaker) ------------------------------------------ #


def test_breaker_trips_after_consecutive_faulted_jobs() -> None:
    plan = FaultPlan(
        seed=8,
        faults=(
            TransferFault(at_transfer=0, direction="write", mode="fail"),
            TransferFault(at_transfer=1, direction="write", mode="fail"),
        ),
    )
    sched = StencilScheduler(
        devices=1,
        retry_policy=RetryPolicy(max_retries=0),
        quarantine_threshold=1.0,  # isolate the breaker from quarantine
        breaker_threshold=2,
    )
    with arm(plan):
        sched.submit(job("f1"))
        (r1,) = sched.run_until_idle()
        sched.submit(job("f2"))
        (r2,) = sched.run_until_idle()
        sched.submit(job("ok"))
        (r3,) = sched.run_until_idle()
    assert r1.status == r2.status == "failed"
    worker = sched.workers[0]
    assert worker.breaker.tripped
    assert "consecutive" in worker.breaker.reason
    assert r3.status == "completed"
    assert r3.engine == "numpy"  # degraded, not dead
    assert np.array_equal(r3.result, REF_4)


def test_success_resets_breaker_counter() -> None:
    breaker = CircuitBreaker(threshold=2)
    breaker.record_fault()
    breaker.record_success()
    breaker.record_fault()
    assert not breaker.tripped
    breaker.record_fault()
    assert breaker.tripped


def test_native_compile_failure_degrades_to_numpy(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    monkeypatch.setenv("REPRO_NO_NATIVE", "1")
    sched = StencilScheduler(devices=1, engine="native")
    sched.submit(job("j"))
    (result,) = sched.run_until_idle()
    assert result.status == "completed"
    assert result.engine == "native"  # what was asked for at dispatch...
    worker = sched.workers[0]
    assert worker.breaker.tripped  # ...but the breaker saw the build fail
    assert "native engine unavailable" in worker.breaker.reason
    assert any("degraded to numpy" in e for e in worker.events)
    assert np.array_equal(result.result, REF_4)
    # subsequent jobs dispatch straight to the degraded engine
    sched.submit(job("k"))
    (r2,) = sched.run_until_idle()
    assert r2.engine == "numpy"


# -- checkpoint plumbing ------------------------------------------------------ #


def test_job_checkpoint_heals_fault_in_place() -> None:
    ref = reference_run(GRID, SPEC, 100)
    plan = FaultPlan(seed=11, faults=(SEUFault(at_touch=91, site="block-buffer"),))
    sched = StencilScheduler(devices=1)
    sched.submit(
        job("healed", iterations=100, checkpoint=CheckpointPolicy(every=8))
    )
    with arm(plan):
        (result,) = sched.run_until_idle()
    assert result.status == "completed"
    assert result.rollbacks == 1
    assert 0 < result.replayed_passes <= 8
    assert result.attempts == 1  # healed below the queue's retry layer
    assert np.array_equal(result.result, ref)


def test_default_checkpoint_applies_to_bare_jobs() -> None:
    plan = FaultPlan(seed=11, faults=(SEUFault(at_touch=91, site="block-buffer"),))
    sched = StencilScheduler(devices=1, default_checkpoint=8)
    sched.submit(job("bare", iterations=100))
    with arm(plan):
        (result,) = sched.run_until_idle()
    assert result.status == "completed"
    assert result.rollbacks == 1


# -- introspection ------------------------------------------------------------- #


def test_device_report_shape() -> None:
    sched = StencilScheduler(devices=2)
    sched.submit(job("j"))
    sched.run_until_idle()
    report = sched.device_report()
    assert len(report) == 2
    assert report[0]["jobs_run"] == 1
    assert report[1]["jobs_run"] == 0
    for entry in report:
        assert set(entry) == {
            "device",
            "jobs_run",
            "fault_rate",
            "quarantined",
            "breaker_tripped",
            "breaker_reason",
            "clock_s",
            "events",
        }


# -- serving-layer extensions: structured errors, execute_job, cache -------- #


def test_saturation_error_carries_structured_context() -> None:
    sched = StencilScheduler(devices=1, max_pending=1)
    sched.submit(job("a"))
    with pytest.raises(SchedulerSaturatedError) as exc:
        sched.submit(job("b"))
    err = exc.value
    assert err.queued == 1 and err.capacity == 1
    assert "queued=1" in err.details() and "capacity=1" in err.details()


def test_execute_job_matches_run_until_idle() -> None:
    sched = StencilScheduler(devices=2, engine="numpy")
    direct = sched.execute_job(job("direct"))
    sched.submit(job("queued"))
    queued = sched.run_until_idle()[0]
    assert direct.status == queued.status == "completed"
    assert np.array_equal(direct.result, REF_4)
    assert np.array_equal(queued.result, REF_4)
    # execute_job shares the duplicate-id namespace with submit()
    with pytest.raises(ConfigurationError):
        sched.execute_job(job("queued"))


def test_execute_job_redispatches_on_transient_fault() -> None:
    plan = FaultPlan(
        seed=5, faults=(TransferFault(at_transfer=0, direction="write", mode="fail"),)
    )
    sched = StencilScheduler(
        devices=2,
        engine="numpy",
        retry_policy=RetryPolicy(max_retries=0),
    )
    with arm(plan):
        result = sched.execute_job(job("bounce"))
    assert result.status == "completed"
    assert result.dispatches == 2
    assert np.array_equal(result.result, REF_4)


def test_job_engine_override_pins_tier() -> None:
    sched = StencilScheduler(devices=1, engine="auto")
    result = sched.execute_job(job("slow", engine="numpy"))
    assert result.status == "completed"
    assert result.engine == "numpy"
    assert np.array_equal(result.result, REF_4)
    with pytest.raises(ConfigurationError):
        job("bad", engine="gpu")


def test_program_cache_coalesces_identical_jobs() -> None:
    sched = StencilScheduler(devices=2, engine="numpy")
    for i in range(4):
        sched.submit(job(f"same-{i}"))
    results = sched.run_until_idle()
    assert all(r.status == "completed" for r in results)
    snap = sched.program_cache.snapshot()
    assert snap["flights"] == 1  # one build, three cache hits
    assert snap["hits"] == 3


def test_shared_cache_is_not_closed_by_scheduler() -> None:
    from repro.runtime import ArtifactCache

    cache = ArtifactCache(capacity=4)
    sched = StencilScheduler(devices=1, engine="numpy", program_cache=cache)
    sched.execute_job(job("a"))
    sched.close()
    sched.close()  # idempotent
    with pytest.raises(ConfigurationError):
        sched.submit(job("late"))
    with pytest.raises(ConfigurationError):
        sched.execute_job(job("late2"))
    # the shared cache survives the scheduler; its owner closes it
    prog = cache.get(SPEC, CONFIG, engine="numpy")
    assert not prog.closed
    cache.close()
    assert prog.closed


def test_owned_cache_closes_with_scheduler() -> None:
    sched = StencilScheduler(devices=1, engine="numpy")
    sched.execute_job(job("a"))
    from repro.runtime.artifacts import artifact_key

    key = artifact_key(SPEC, CONFIG, engine="numpy")
    assert sched.program_cache.contains(key)
    sched.close()
    with pytest.raises(ConfigurationError):
        sched.program_cache.get(SPEC, CONFIG, engine="numpy")


def test_fully_degraded_board_releases_fast_path_pools() -> None:
    # every device trips its breaker -> the cached fast-tier programs
    # for that board are closed and dropped from the cache
    plan = FaultPlan(
        seed=9,
        faults=tuple(
            SEUFault(at_touch=t, site="block-buffer") for t in (1, 40, 80, 120)
        ),
    )
    sched = StencilScheduler(
        devices=1,
        engine="auto",
        breaker_threshold=1,
        retry_policy=RetryPolicy(max_retries=2),
    )
    from repro.runtime.artifacts import artifact_key

    fast_key = artifact_key(SPEC, CONFIG, engine="auto")
    with arm(plan):
        first = sched.execute_job(job("tripwire"))
    assert first.status == "completed"  # queue retry recovered the fault
    assert sched.workers[0].breaker.tripped
    assert not sched.program_cache.contains(fast_key)
    assert any("released" in e for e in sched.workers[0].events)
    # degraded steady state still serves correct bits via numpy
    after = sched.execute_job(job("after"))
    assert after.engine == "numpy"
    assert np.array_equal(after.result, REF_4)
    sched.close()


# -- shutdown semantics ------------------------------------------------------ #


def test_non_finite_deadlines_rejected() -> None:
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ConfigurationError) as exc:
            job("j", deadline_s=bad)
        assert exc.value.param == "deadline_s"
        with pytest.raises(ConfigurationError):
            sharded_job("j", deadline_s=bad)


def test_close_fails_pending_jobs_typed() -> None:
    sched = StencilScheduler(devices=2, engine="numpy")
    sched.submit(job("p1"))
    sched.submit(job("p2"))
    shed = sched.close()
    assert [r.job_id for r in shed] == ["p1", "p2"]
    for r in shed:
        assert r.status == "failed"
        assert r.error_type == "SchedulerShutdownError"
        assert r.device is None and r.result is None
    assert sched.pending == 0
    # idempotent: a second close has nothing left to settle
    assert sched.close() == []
    with pytest.raises(ConfigurationError):
        sched.submit(job("late"))


def test_close_drain_finishes_pending_jobs() -> None:
    sched = StencilScheduler(devices=2, engine="numpy")
    sched.submit(job("d1"))
    sched.submit(job("d2"))
    results = sched.close(drain=True)
    assert [r.job_id for r in results] == ["d1", "d2"]
    for r in results:
        assert r.status == "completed"
        assert np.array_equal(r.result, REF_4)
    assert sched.close() == []


# -- sharded jobs ------------------------------------------------------------ #

from repro.faults import DeviceLossFault  # noqa: E402
from repro.runtime import ShardedJob  # noqa: E402

SHARD_GRID = make_grid((24, 64), "mixed", seed=11)
SHARD_REF = reference_run(SHARD_GRID, SPEC, 6)


def sharded_job(job_id: str, **kwargs) -> ShardedJob:
    kwargs.setdefault("iterations", 6)
    kwargs.setdefault("checkpoint", 2)
    return ShardedJob(
        job_id=job_id, spec=SPEC, config=CONFIG, grid=SHARD_GRID, **kwargs
    )


def test_sharded_job_validation() -> None:
    with pytest.raises(ConfigurationError):
        sharded_job("j", shards=0)
    with pytest.raises(ConfigurationError):
        sharded_job("j", boundary="mirror")
    with pytest.raises(ConfigurationError):
        sharded_job("j", iterations=0)
    with pytest.raises(ConfigurationError):
        sharded_job("j", engine="simd")
    with pytest.raises(ConfigurationError):
        sharded_job("j", deadline_s=0.0)


def test_sharded_job_completes_bit_exact() -> None:
    sched = StencilScheduler(devices=3, engine="numpy")
    result = sched.execute_sharded(sharded_job("s1", shards=3))
    assert result.status == "completed"
    assert np.array_equal(result.result, SHARD_REF)
    assert result.devices == (0, 1, 2)
    assert result.engines == ("numpy",) * 3
    # lockstep: every backing worker's clock advanced by the run
    assert all(w.queue.clock_s >= result.elapsed_s for w in sched.workers)
    sched.close()


def test_sharded_job_admission_typed() -> None:
    sched = StencilScheduler(devices=2, engine="numpy")
    with pytest.raises(ConfigurationError):
        sched.execute_sharded(sharded_job("too-wide", shards=3))
    sched.execute_sharded(sharded_job("once", shards=2))
    with pytest.raises(ConfigurationError):
        sched.execute_sharded(sharded_job("once", shards=2))
    sched.close()
    with pytest.raises(ConfigurationError):
        sched.execute_sharded(sharded_job("after-close"))


def test_sharded_deadline_fails_fast_on_model() -> None:
    sched = StencilScheduler(devices=2, engine="numpy")
    result = sched.execute_sharded(sharded_job("late", deadline_s=1e-12))
    assert result.status == "failed"
    assert result.error_type == "DeadlineExceededError"
    assert "not dispatched" in result.error
    sched.close()


def test_sharded_fault_charges_only_faulty_worker() -> None:
    sched = StencilScheduler(devices=2, engine="numpy")
    plan = FaultPlan(
        seed=3, faults=(SEUFault(site="block-buffer", at_touch=2),)
    )
    with arm(plan):
        result = sched.execute_sharded(sharded_job("seu", shards=2))
    assert result.status == "completed"
    assert np.array_equal(result.result, SHARD_REF)
    assert result.rollbacks >= 1
    faulty = [w for w, n in zip(sched.workers, result.stats.device_faults) if n]
    clean = [w for w, n in zip(sched.workers, result.stats.device_faults) if not n]
    assert len(faulty) == 1 and len(clean) == 1
    assert faulty[0].window.count(True) == 1
    assert clean[0].window.count(True) == 0
    sched.close()


def test_sharded_device_loss_survives_and_reports() -> None:
    sched = StencilScheduler(devices=2, engine="numpy")
    plan = FaultPlan(seed=3, faults=(DeviceLossFault(at_pass=1, device=1),))
    with arm(plan):
        result = sched.execute_sharded(sharded_job("loss", shards=2))
    assert result.status == "completed"
    assert np.array_equal(result.result, SHARD_REF)
    assert "lost" in result.engines
    assert result.stats.reshards == 1
    sched.close()


def test_checkpoint_quarantine_degradation_interplay() -> None:
    """Recovered shard on a degraded, quarantined board stays bit-exact.

    Three sharded runs against the same 2-device fleet: the first two
    take an SEU on the shard backed by device 0, tripping its breaker
    (threshold 1, first faulty run) and then quarantining it (fault
    rate 1.0 over >= 2 samples).  The third run *still* backs a shard
    with the sick board — resolved to its degraded numpy engine — takes
    another SEU there, and recovers from its own shard checkpoints to
    the bit-exact answer.
    """
    sched = StencilScheduler(
        devices=2, engine="native", breaker_threshold=1
    )
    for run in ("first", "second"):
        plan = FaultPlan(
            seed=3, faults=(SEUFault(site="block-buffer", at_touch=2),)
        )
        with arm(plan):
            result = sched.execute_sharded(sharded_job(run, shards=2))
        assert result.status == "completed"
        assert np.array_equal(result.result, SHARD_REF)
    sick = next(w for w in sched.workers if w.breaker.tripped)
    assert sick.quarantined
    healthy = next(w for w in sched.workers if w is not sick)
    assert not healthy.breaker.tripped

    # at_touch=16 clears the re-admission probe's own touches and lands
    # inside the shard backed by the sick board
    plan = FaultPlan(
        seed=3, faults=(SEUFault(site="block-buffer", at_touch=16),)
    )
    with arm(plan):
        result = sched.execute_sharded(sharded_job("third", shards=2))
    assert result.status == "completed"
    assert np.array_equal(result.result, SHARD_REF)
    assert result.rollbacks >= 1
    # the probe re-admitted the sick board on its degraded engine, the
    # SEU hit *its* shard, and shard checkpoints recovered it bit-exact
    assert any("re-admitted" in e for e in sick.events)
    sick_slot = result.devices.index(sick.index)
    assert result.stats.device_faults[sick_slot] >= 1
    assert result.engines[sick_slot] == "numpy"
    assert result.engines[result.devices.index(healthy.index)] == "native"
    sched.close()
