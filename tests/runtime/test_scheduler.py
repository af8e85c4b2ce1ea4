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
        StencilScheduler(quarantine_threshold=0.0)
    with pytest.raises(ConfigurationError):
        StencilScheduler(engine="simd")
    with pytest.raises(ConfigurationError):
        StencilScheduler(max_dispatches=0)
    with pytest.raises(ConfigurationError):
        CircuitBreaker(threshold=0)


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
    sched = StencilScheduler(
        devices=1,
        retry_policy=RetryPolicy(max_retries=2),
        quarantine_threshold=0.4,
        min_health_samples=1,
    )
    # retried-but-recovered job still counts as a fault for health
    plan = FaultPlan(seed=4, faults=(TransferFault(direction="write", mode="corrupt"),))
    with arm(plan):
        r1 = sched.execute_job(job("faulty"))
    assert r1.status == "completed"
    worker = sched.workers[0]
    assert worker.quarantined
    assert any("quarantined" in e for e in worker.events)

    # with every device quarantined the scheduler probes immediately;
    # the clean probe re-admits the device and the job completes there
    r2 = sched.execute_job(job("next"))
    assert r2.status == "completed"
    assert not worker.quarantined
    assert any("re-admitted" in e for e in worker.events)


def test_quarantined_device_sits_out_until_probe_due() -> None:
    sched = StencilScheduler(devices=2, probe_after_jobs=2)
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
    sched = StencilScheduler(
        devices=1,
        retry_policy=RetryPolicy(max_retries=0),
        quarantine_threshold=1.0,  # isolate the breaker from quarantine
        breaker_threshold=2,
    )
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
    assert after.engines == ("numpy",)
    assert np.array_equal(after.result, REF_4)
    sched.close()


# -- SLO validation ---------------------------------------------------------- #


def test_non_finite_deadlines_rejected() -> None:
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ConfigurationError) as exc:
            job("j", deadline_s=bad)
        assert exc.value.param == "deadline_s"
        with pytest.raises(ConfigurationError):
            sharded_job("j", deadline_s=bad)


# -- sharded jobs ------------------------------------------------------------ #

from repro.errors import DeviceLostError, HaloExchangeError  # noqa: E402
from repro.faults import (  # noqa: E402
    ChannelStallFault,
    DeviceLossFault,
    HaloCorruptFault,
)
from repro.runtime import ShardedJob, ShardedRunner  # noqa: E402

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
    with pytest.raises(ConfigurationError) as exc:
        ShardedJob(job_id="j", spec=SPEC, config=None, grid=SHARD_GRID)
    assert exc.value.param == "config"


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


def test_sharded_deadline_missed_after_replay_discards_result() -> None:
    # the deadline fits a clean run; an SEU in shard 0's second pass
    # rolls it back to pass 0, and the replay pushes it past the budget
    from repro.fpga.board import NALLATECH_385A
    from repro.models.performance import PerformanceModel

    estimate_s = PerformanceModel(NALLATECH_385A).predict_sharded(
        SPEC, CONFIG, SHARD_GRID.shape, 6, shards=2
    ).time_s
    sched = StencilScheduler(devices=2, engine="numpy")
    plan = FaultPlan(
        seed=3, faults=(SEUFault(site="block-buffer", at_touch=12),)
    )
    with arm(plan):
        result = sched.execute_sharded(
            sharded_job("late", shards=2, deadline_s=estimate_s * 1.000001)
        )
    assert result.status == "failed"
    assert result.error_type == "DeadlineExceededError"
    assert "not dispatched" not in result.error
    assert result.result is None
    assert result.replayed_passes >= 1
    assert result.elapsed_s > estimate_s
    # lockstep: every backing board was held for the whole late run...
    assert [w.queue.clock_s for w in sched.workers] == [result.elapsed_s] * 2
    # ...and each one's health was settled from its own fault count
    assert all(w.jobs_run == 1 for w in sched.workers)
    assert sorted(list(w.window) for w in sched.workers) == [[False], [True]]
    assert any("missed deadline" in e for e in sched.workers[0].events)
    sched.close()


def test_sharded_placement_skips_quarantined_board() -> None:
    sched = StencilScheduler(devices=3, engine="numpy")
    sick = sched.workers[0]
    sick.quarantined = True
    sick.quarantined_at_job = 0  # probe not due yet
    sched.workers[1].queue.clock_s = 5.0
    sched.workers[2].queue.clock_s = 1.0
    result = sched.execute_sharded(sharded_job("skip", shards=2))
    assert result.status == "completed"
    assert np.array_equal(result.result, SHARD_REF)
    # the two healthy boards back the shards, least-loaded first
    assert result.devices == (2, 1)
    assert sick.queue.clock_s == 0.0 and sick.jobs_run == 0
    assert sick.quarantined
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
    # one health sample per backing worker, faulty only on the SEU's
    assert sorted(list(w.window) for w in sched.workers) == [[False], [True]]
    sched.close()


def test_sharded_device_loss_survives_and_reports() -> None:
    sched = StencilScheduler(devices=2, engine="numpy")
    plan = FaultPlan(seed=3, faults=(DeviceLossFault(at_pass=1, device=1),))
    with arm(plan):
        result = sched.execute_sharded(sharded_job("loss", shards=2))
    assert result.status == "completed"
    assert np.array_equal(result.result, SHARD_REF)
    assert "lost" in result.engines
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
    assert sick.window[-1] and not healthy.window[-1]
    assert result.engines[sick_slot] == "numpy"
    assert result.engines[result.devices.index(healthy.index)] == "native"
    sched.close()


@pytest.mark.parametrize(
    "grid",
    [make_grid((3, 64), "mixed", seed=1), make_grid((4, 8, 64), "mixed", seed=1)],
    ids=["too-few-rows", "wrong-rank"],
)
def test_sharded_job_rejected_by_plan_takes_no_health_sample(grid) -> None:
    # like a misconfigured single-device job: typed, and not the boards'
    # fault, so no health sample, no clock time and no log line
    sched = StencilScheduler(devices=2, engine="numpy")
    result = sched.execute_sharded(
        ShardedJob(job_id="bad", spec=SPEC, config=CONFIG, grid=grid, shards=2)
    )
    assert result.status == "failed"
    assert result.error_type == "ConfigurationError"
    assert result.result is None and result.elapsed_s == 0.0
    for w in sched.workers:
        assert w.jobs_run == 0 and not w.window
        assert w.queue.clock_s == 0.0 and not w.events
    sched.close()


def _halo_stall() -> tuple:
    # the second write on the edge: the run has completed two passes
    return (
        ChannelStallFault(
            channel="halo:0->1:lo", op="write", at_op=1, duration=10_000
        ),
    )


def _halo_overrun() -> tuple:
    # every send of round 1 and its retries is corrupted
    return tuple(
        HaloCorruptFault(edge="halo:0->1:lo", at_exchange=k) for k in range(1, 4)
    )


def _no_survivor() -> tuple:
    return (
        DeviceLossFault(at_pass=1, device=0),
        DeviceLossFault(at_pass=1, device=1),
    )


@pytest.mark.parametrize(
    "faults, error",
    [
        (_halo_stall, HaloExchangeError),
        (_halo_overrun, HaloExchangeError),
        (_no_survivor, DeviceLostError),
    ],
    ids=["halo-stall", "halo-retry-overrun", "no-survivor"],
)
def test_failed_sharded_job_charges_the_time_it_spent(faults, error) -> None:
    plan = FaultPlan(seed=5, faults=faults())
    with ShardedRunner(
        SPEC, CONFIG, shards=2, engine="numpy", checkpoint=2
    ) as runner, arm(plan):
        with pytest.raises(error):
            runner.run(SHARD_GRID, 6)
    spent = runner.sim_time_s
    assert spent > 0.0

    sched = StencilScheduler(devices=2, engine="numpy")
    with arm(plan):
        result = sched.execute_sharded(sharded_job("fails", shards=2))
    assert result.status == "failed"
    assert result.error_type == error.__name__
    assert result.result is None
    # the boards were held for every pass run before the raise
    assert result.elapsed_s == spent
    assert [w.queue.clock_s for w in sched.workers] == [spent] * 2
    assert all(w.jobs_run == 1 for w in sched.workers)
    sched.close()


def test_repeated_sharded_faults_trip_only_that_workers_breaker() -> None:
    # the per-worker breaker is the one degrade: two faulty sharded jobs
    # on one board trip its breaker, and the next job backs that
    # board's shard with the NumPy engine while the other stays native
    sched = StencilScheduler(devices=2, engine="native", breaker_threshold=2)
    for run in ("first", "second"):
        plan = FaultPlan(
            seed=3, faults=(SEUFault(site="block-buffer", at_touch=2),)
        )
        with arm(plan):
            result = sched.execute_sharded(sharded_job(run, shards=2))
        assert result.status == "completed"
        assert np.array_equal(result.result, SHARD_REF)
        assert result.engines == ("native", "native")
    tripped = [w for w in sched.workers if w.breaker.tripped]
    assert len(tripped) == 1
    sick = tripped[0]
    assert list(sick.window) == [True, True]

    result = sched.execute_sharded(sharded_job("third", shards=2))
    assert result.status == "completed"
    assert np.array_equal(result.result, SHARD_REF)
    assert sorted(result.devices) == [0, 1]
    for device, engine in zip(result.devices, result.engines):
        assert engine == ("numpy" if device == sick.index else "native")
    sched.close()
