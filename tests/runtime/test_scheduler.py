"""Fault-tolerant multi-device scheduler (repro.runtime.scheduler)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import BlockingConfig, StencilSpec, make_grid, reference_run
from repro.errors import ConfigurationError
from repro.faults import FaultPlan, SEUFault, TransferFault, arm
from repro.runtime import (
    CheckpointPolicy,
    CircuitBreaker,
    HostDevice,
    RetryPolicy,
    StencilJob,
    StencilScheduler,
)
from repro.runtime.host import EVENT_LOG
from repro.runtime.scheduler import HEALTH_WINDOW

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
    with pytest.raises(ConfigurationError):
        job("j", engine="simd")


def test_scheduler_validation() -> None:
    with pytest.raises(ConfigurationError):
        StencilScheduler(devices=0)
    with pytest.raises(ConfigurationError):
        StencilScheduler(devices=[])
    with pytest.raises(ConfigurationError):
        StencilScheduler(engine="simd")


# -- dispatch --------------------------------------------------------------- #


def test_jobs_balance_across_devices() -> None:
    sched = StencilScheduler(devices=2)
    results = [sched.execute_job(job(f"j{i}")) for i in range(4)]
    assert all(r.status == "completed" for r in results)
    assert all(np.array_equal(r.result, REF_4) for r in results)
    # min-clock dispatch alternates identical jobs across identical boards
    assert [r.devices for r in results] == [(0,), (1,), (0,), (1,)]
    report = sched.device_report()
    assert report[0]["clock_s"] == pytest.approx(report[1]["clock_s"])


def test_explicit_device_list_accepted() -> None:
    sched = StencilScheduler(devices=[HostDevice(), HostDevice()])
    assert sched.execute_job(job("j")).status == "completed"


def test_results_cover_every_admitted_job() -> None:
    sched = StencilScheduler(devices=2)
    ids = [f"j{i}" for i in range(5)]
    results = [sched.execute_job(job(jid)) for jid in ids]
    assert [r.job_id for r in results] == ids


# -- deadlines --------------------------------------------------------------- #


def test_deadline_fail_fast_before_dispatch() -> None:
    sched = StencilScheduler(devices=1)
    result = sched.execute_job(job("late", deadline_s=1e-12))
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
    with arm(plan):
        result = sched.execute_job(job("tight", deadline_s=0.5))
    assert result.status == "failed"
    assert result.error_type == "DeadlineExceededError"
    assert result.result is None  # late results are discarded, never returned
    assert result.elapsed_s > 0.5


def test_generous_deadline_met() -> None:
    sched = StencilScheduler(devices=1)
    result = sched.execute_job(job("ok", deadline_s=10.0))
    assert result.status == "completed"
    assert result.elapsed_s <= 10.0


# -- health tracking / quarantine -------------------------------------------- #


def test_faulty_device_quarantined_then_probed_back() -> None:
    sched = StencilScheduler(devices=1, retry_policy=RetryPolicy(max_retries=2))
    worker = sched.workers[0]
    # retried-but-recovered jobs still count as faults for health: the
    # first is one sample, too few to judge; the second makes the rate
    # 2/2, above the threshold
    for run in ("faulty-1", "faulty-2"):
        assert not worker.quarantined
        plan = FaultPlan(
            seed=4, faults=(TransferFault(direction="write", mode="corrupt"),)
        )
        with arm(plan):
            result = sched.execute_job(job(run))
        assert result.status == "completed"
    assert list(worker.window) == [True, True]
    assert worker.quarantined
    assert any("quarantined" in e for e in worker.events)

    # with every device quarantined the scheduler probes immediately;
    # the clean probe re-admits the device and the job completes there
    r2 = sched.execute_job(job("next"))
    assert r2.status == "completed"
    assert not worker.quarantined
    assert any("re-admitted" in e for e in worker.events)


def test_quarantined_device_sits_out_until_probe_due() -> None:
    sched = StencilScheduler(devices=2)
    sick = sched.workers[0]
    sick.quarantined = True
    sick.quarantined_at_job = 0
    results = [sched.execute_job(job(f"j{i}")) for i in range(4)]
    assert all(r.status == "completed" for r in results)
    # the first two jobs may only use the healthy device; once two jobs
    # completed, the probe re-admits device 0
    assert results[0].devices == (1,)
    assert results[1].devices == (1,)
    assert not sick.quarantined
    assert (0,) in {r.devices for r in results[2:]}


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
    with arm(plan):
        result = sched.execute_job(job("bounced"))
    assert result.status == "completed"
    assert result.dispatches == 2
    assert result.devices == (1,)
    assert np.array_equal(result.result, REF_4)


def test_single_device_fault_failure_is_final() -> None:
    plan = FaultPlan(seed=7, faults=(TransferFault(direction="write", mode="fail"),))
    sched = StencilScheduler(devices=1, retry_policy=RetryPolicy(max_retries=0))
    with arm(plan):
        result = sched.execute_job(job("doomed"))
    assert result.status == "failed"
    assert result.error_type == "FaultDetectedError"
    assert result.dispatches == 1


def test_deadline_failures_are_never_redispatched() -> None:
    sched = StencilScheduler(devices=2)
    result = sched.execute_job(job("late", deadline_s=1e-12))
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
    sched = StencilScheduler(devices=1, retry_policy=RetryPolicy(max_retries=0))
    with arm(plan):
        r1 = sched.execute_job(job("f1"))
        r2 = sched.execute_job(job("f2"))
        r3 = sched.execute_job(job("ok"))
    assert r1.status == r2.status == "failed"
    worker = sched.workers[0]
    assert worker.breaker.tripped
    assert "consecutive" in worker.breaker.reason
    assert r3.status == "completed"
    assert r3.engines == ("numpy",)  # degraded, not dead
    assert np.array_equal(r3.result, REF_4)


def test_success_resets_breaker_counter() -> None:
    breaker = CircuitBreaker()
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
    result = sched.execute_job(job("j"))
    assert result.status == "completed"
    assert result.engines == ("native",)  # what was asked for at dispatch...
    worker = sched.workers[0]
    assert worker.breaker.tripped  # ...but the breaker saw the build fail
    assert "native engine unavailable" in worker.breaker.reason
    assert any("degraded to numpy" in e for e in worker.events)
    assert np.array_equal(result.result, REF_4)
    # subsequent jobs dispatch straight to the degraded engine
    r2 = sched.execute_job(job("k"))
    assert r2.engines == ("numpy",)


# -- checkpoint plumbing ------------------------------------------------------ #


def test_job_checkpoint_heals_fault_in_place() -> None:
    ref = reference_run(GRID, SPEC, 100)
    plan = FaultPlan(seed=11, faults=(SEUFault(at_touch=91, site="block-buffer"),))
    sched = StencilScheduler(devices=1)
    with arm(plan):
        result = sched.execute_job(
            job("healed", iterations=100, checkpoint=CheckpointPolicy(every=8))
        )
    assert result.status == "completed"
    assert result.rollbacks == 1
    assert 0 < result.replayed_passes <= 8
    assert result.attempts == 1  # healed below the queue's retry layer
    assert np.array_equal(result.result, ref)


def test_default_checkpoint_applies_to_bare_jobs() -> None:
    plan = FaultPlan(seed=11, faults=(SEUFault(at_touch=91, site="block-buffer"),))
    sched = StencilScheduler(devices=1, default_checkpoint=8)
    with arm(plan):
        result = sched.execute_job(job("bare", iterations=100))
    assert result.status == "completed"
    assert result.rollbacks == 1


# -- introspection ------------------------------------------------------------- #


def test_device_report_shape() -> None:
    sched = StencilScheduler(devices=2)
    sched.execute_job(job("j"))
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


def test_worker_log_keeps_the_newest_event_log_lines() -> None:
    sched = StencilScheduler(devices=1, engine="numpy")
    worker = sched.workers[0]
    for i in range(EVENT_LOG + 5):
        worker.log(f"line {i}")
    assert len(worker.events) == EVENT_LOG
    assert worker.events[0] == "device 0: line 5"
    assert worker.events[-1] == f"device 0: line {EVENT_LOG + 4}"
    events = sched.device_report()[0]["events"]
    assert isinstance(events, list) and events == list(worker.events)
    sched.close()


# -- serving-layer extensions: structured errors, execute_job, cache -------- #


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
    assert result.engines == ("numpy",)
    assert np.array_equal(result.result, REF_4)
    with pytest.raises(ConfigurationError):
        job("bad", engine="gpu")


def test_program_cache_coalesces_identical_jobs() -> None:
    sched = StencilScheduler(devices=2, engine="numpy")
    results = [sched.execute_job(job(f"same-{i}")) for i in range(4)]
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
        sched.execute_job(job("late"))
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
        devices=1, engine="auto", retry_policy=RetryPolicy(max_retries=2)
    )
    from repro.runtime.artifacts import artifact_key

    fast_key = artifact_key(SPEC, CONFIG, engine="auto")
    # two faulted launches in a row trip the breaker
    for run in ("tripwire-1", "tripwire-2"):
        with arm(plan):
            result = sched.execute_job(job(run))
        assert result.status == "completed"  # queue retry recovered the fault
    assert sched.workers[0].breaker.tripped
    assert not sched.program_cache.contains(fast_key)
    assert any("released" in e for e in sched.workers[0].events)
    # degraded steady state still serves correct bits via numpy
    after = sched.execute_job(job("after"))
    assert after.engines == ("numpy",)
    assert np.array_equal(after.result, REF_4)
    sched.close()


# -- SLO validation ---------------------------------------------------------- #


def test_non_finite_deadlines_rejected() -> None:
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ConfigurationError) as exc:
            job("j", deadline_s=bad)
        assert exc.value.param == "deadline_s"


def test_execute_job_after_close_raises_typed() -> None:
    sched = StencilScheduler(devices=1, engine="numpy")
    sched.close()
    with pytest.raises(ConfigurationError) as exc:
        sched.execute_job(job("after-close"))
    assert exc.value.param == "closed"


# -- failure accounting ------------------------------------------------------ #


@pytest.mark.parametrize(
    "bad, error_type",
    [
        (job("bad", deadline_s=1e-12), "DeadlineExceededError"),
        (
            StencilJob(
                job_id="bad",
                spec=SPEC,
                config=BlockingConfig(dims=2, radius=2, bsize_x=64, partime=2),
                grids=(GRID,),
            ),
            "ConfigurationError",
        ),
    ],
    ids=["modeled-deadline", "spec-config-mismatch"],
)
def test_job_rejected_before_it_runs_takes_no_health_sample(
    bad, error_type
) -> None:
    # typed, and not the board's fault: no health sample, no clock time
    # and no log line; and final, so no other board of the fleet tries it
    sched = StencilScheduler(devices=3, engine="numpy")
    result = sched.execute_job(bad)
    assert result.status == "failed" and result.error_type == error_type
    assert result.dispatches == 1
    assert result.result is None and result.elapsed_s == 0.0
    for worker in sched.workers:
        assert worker.jobs_run == 0 and not worker.window
        assert worker.queue.clock_s == 0.0 and not worker.events
    sched.close()


def test_fault_rate_counts_only_the_last_health_window_jobs() -> None:
    sched = StencilScheduler(
        devices=1, engine="numpy", retry_policy=RetryPolicy(max_retries=2)
    )
    plan = FaultPlan(
        seed=4, faults=(TransferFault(direction="write", mode="corrupt"),)
    )
    with arm(plan):
        sched.execute_job(job("faulty"))
    rates = []
    for i in range(HEALTH_WINDOW):
        sched.execute_job(job(f"clean-{i}"))
        rates.append(sched.device_report()[0]["fault_rate"])
    # the faulty job counts until HEALTH_WINDOW later jobs push it out
    assert rates == [1 / (i + 2) for i in range(HEALTH_WINDOW - 1)] + [0.0]
    assert not sched.workers[0].quarantined
    sched.close()


def test_failed_job_charges_the_time_it_spent() -> None:
    plan = FaultPlan(
        seed=7, faults=(TransferFault(direction="read", mode="fail"),)
    )
    sched = StencilScheduler(
        devices=1, engine="numpy", retry_policy=RetryPolicy(max_retries=0)
    )
    with arm(plan):
        result = sched.execute_job(job("fails"))
    assert result.status == "failed"
    assert result.error_type == "FaultDetectedError"
    assert result.result is None
    # the board was held for everything run before the raise
    worker = sched.workers[0]
    assert result.elapsed_s > 0.0
    assert worker.queue.clock_s == result.elapsed_s
    assert worker.jobs_run == 1 and list(worker.window) == [True]
    sched.close()


def test_checkpoint_quarantine_degradation_interplay() -> None:
    """A checkpointed job on a degraded, re-admitted board stays bit-exact.

    The first two runs take an SEU that a checkpoint rollback heals;
    each still counts as a faulty launch and a faulty health sample, so
    together they trip the board's breaker (two in a row) and
    quarantine it (fault rate 1.0 over 2 samples).  With no healthy
    board left, the
    third run probes the sick one back in, runs on its degraded NumPy
    engine, takes another SEU and recovers from its own checkpoints to
    the bit-exact answer.
    """
    ref = reference_run(GRID, SPEC, 6)
    sched = StencilScheduler(devices=1, engine="native")
    worker = sched.workers[0]
    for run in ("first", "second"):
        plan = FaultPlan(
            seed=3, faults=(SEUFault(site="block-buffer", at_touch=2),)
        )
        with arm(plan):
            result = sched.execute_job(job(run, iterations=6, checkpoint=1))
        assert result.status == "completed"
        assert result.rollbacks >= 1
        assert np.array_equal(result.result, ref)
    assert worker.breaker.tripped and worker.quarantined

    # at_touch=16 clears the re-admission probe's own touches and lands
    # inside the job
    plan = FaultPlan(
        seed=3, faults=(SEUFault(site="block-buffer", at_touch=16),)
    )
    with arm(plan):
        result = sched.execute_job(job("third", iterations=6, checkpoint=1))
    assert result.status == "completed"
    assert result.rollbacks >= 1
    assert np.array_equal(result.result, ref)
    assert any("re-admitted" in e for e in worker.events)
    assert not worker.quarantined and list(worker.window) == [True]
    assert result.engines == ("numpy",)
    sched.close()
