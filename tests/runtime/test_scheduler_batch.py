"""Batched jobs through the scheduler (StencilJob / execute_batch).

The scheduler treats a batch as *one* job for placement, deadline and
retry purposes; results split per grid only at the very end.  Partial
batches (some grids fault-failed) are final — the scheduler never
re-dispatches a partial batch, callers retry failed entries as single
jobs (the service layer does exactly that).
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
from repro.errors import ConfigurationError
from repro.faults import FaultPlan, SEUFault, arm
from repro.runtime import StencilJob, StencilScheduler

SPEC = StencilSpec.star(2, 1)
CONFIG = BlockingConfig(dims=2, radius=1, bsize_x=32, parvec=4, partime=2)
SHAPE = (12, 20)
GRIDS = tuple(make_grid(SHAPE, "mixed", seed=60 + i) for i in range(4))


def batch_job(job_id: str, **kwargs) -> StencilJob:
    kwargs.setdefault("iterations", 4)
    kwargs.setdefault("grids", GRIDS)
    return StencilJob(job_id=job_id, spec=SPEC, config=CONFIG, **kwargs)


def test_batch_job_validation() -> None:
    with pytest.raises(ConfigurationError) as exc:
        batch_job("j", grids=())
    assert exc.value.param == "grids"
    with pytest.raises(ConfigurationError):
        batch_job("j", iterations=0)
    with pytest.raises(ConfigurationError):
        batch_job("j", deadline_s=0.0)
    mixed = (GRIDS[0], make_grid((8, 20), "mixed", seed=1))
    with pytest.raises(ConfigurationError):
        batch_job("j", grids=mixed)


def test_execute_batch_completes_bit_exact() -> None:
    sched = StencilScheduler(devices=1)
    try:
        result = sched.execute_batch(batch_job("b1"))
        assert result.status == "completed"
        assert result.n_grids == 4 and result.n_failed == 0
        for g, out in zip(GRIDS, result.results):
            assert np.array_equal(out, reference_run(g, SPEC, 4))
    finally:
        sched.close()


def test_execute_batch_matches_single_jobs() -> None:
    sched = StencilScheduler(devices=1)
    try:
        batch = sched.execute_batch(batch_job("b2"))
        for i, g in enumerate(GRIDS):
            single = sched.execute_job(
                StencilJob(
                    job_id=f"s{i}", spec=SPEC, config=CONFIG,
                    grids=(g,), iterations=4,
                )
            )
            assert single.status == "completed"
            assert np.array_equal(batch.results[i], single.result)
    finally:
        sched.close()


def test_impossible_deadline_fails_whole_batch_typed() -> None:
    sched = StencilScheduler(devices=1)
    try:
        result = sched.execute_batch(batch_job("late", deadline_s=1e-12))
        assert result.status == "failed"
        assert result.n_failed == result.n_grids == 4
        assert set(result.error_types) == {"DeadlineExceededError"}
        assert all(r is None for r in result.results)
    finally:
        sched.close()


def test_batch_of_one_equals_single_job() -> None:
    sched = StencilScheduler(devices=1)
    try:
        batch = sched.execute_batch(batch_job("one", grids=GRIDS[:1]))
        single = sched.execute_job(
            StencilJob(
                job_id="one-s", spec=SPEC, config=CONFIG,
                grids=GRIDS[:1], iterations=4,
            )
        )
        assert batch.status == "completed"
        assert np.array_equal(batch.results[0], single.result)
    finally:
        sched.close()


def test_bad_config_rejected_without_health_penalty() -> None:
    bad = BlockingConfig(dims=2, radius=1, bsize_x=64, parvec=4, partime=2)
    sched = StencilScheduler(devices=1)
    try:
        job = StencilJob(
            job_id="3d", spec=StencilSpec.star(3, 1), config=bad,
            grids=GRIDS, iterations=2,
        )
        result = sched.execute_batch(job)
        assert result.status == "failed"
        assert set(result.error_types) == {"ConfigurationError"}
        report = sched.device_report()
        assert all(d["fault_rate"] == 0.0 for d in report)
        assert not any(d["quarantined"] for d in report)
    finally:
        sched.close()


def test_batch_checkpoint_runs_clean() -> None:
    sched = StencilScheduler(devices=1)
    try:
        result = sched.execute_batch(batch_job("ck", checkpoint=1))
        assert result.status == "completed"
        for g, out in zip(GRIDS, result.results):
            assert np.array_equal(out, reference_run(g, SPEC, 4))
    finally:
        sched.close()


# -- failure domains under an SEU --------------------------------------------- #

# One pass per grid (partime=2); armed grids run one after another, so the
# block-buffer touch counter addresses them by range (as in
# tests/faults/test_batch_faults.py).
SEU_ITERS = 2
_BLOCKS = (
    FPGAAccelerator(SPEC, CONFIG, engine="numpy")
    .run(GRIDS[0], SEU_ITERS)[1].blocks_per_pass
)
TOUCHES_PER_GRID = _BLOCKS * (1 + SEU_ITERS)


def seu_in_grid(g: int) -> FaultPlan:
    return FaultPlan(
        seed=21,
        faults=(
            SEUFault(at_touch=g * TOUCHES_PER_GRID + 1, site="block-buffer"),
        ),
    )


def test_one_grid_seu_is_retried_by_the_queue_on_its_device() -> None:
    sched = StencilScheduler(devices=2, engine="numpy")
    try:
        job = StencilJob(
            job_id="seu-1", spec=SPEC, config=CONFIG,
            grids=GRIDS[:1], iterations=SEU_ITERS,
        )
        with arm(seu_in_grid(0)) as inj:
            result = sched.execute_job(job)
        assert len(inj.fired) == 1
        assert result.status == "completed"
        assert result.attempts == 2 and result.dispatches == 1
        assert result.devices == (0,)
        assert np.array_equal(
            result.result, reference_run(GRIDS[0], SPEC, SEU_ITERS)
        )
    finally:
        sched.close()


def test_hit_grid_fails_alone_and_the_batch_is_not_redispatched() -> None:
    sched = StencilScheduler(devices=2, engine="numpy")
    try:
        job = StencilJob(
            job_id="seu-3", spec=SPEC, config=CONFIG,
            grids=GRIDS[:3], iterations=SEU_ITERS,
        )
        with arm(seu_in_grid(1)) as inj:
            result = sched.execute_batch(job)
        assert len(inj.fired) == 1
        assert result.status == "partial"
        assert result.dispatches == 1 and result.attempts == 1
        assert result.error_types == (None, "FaultDetectedError", None)
        assert result.results[1] is None
        for g in (0, 2):
            assert np.array_equal(
                result.results[g], reference_run(GRIDS[g], SPEC, SEU_ITERS)
            )
        kernels = [e for e in sched.workers[result.devices[0]].queue.events
                   if e.name.endswith("kernel")]
        assert len(kernels) == 1
        assert not sched.workers[1 - result.devices[0]].queue.events
    finally:
        sched.close()


def test_launch_in_which_no_grid_completed_is_retried_by_the_queue() -> None:
    sched = StencilScheduler(devices=2, engine="numpy")
    try:
        job = StencilJob(
            job_id="seu-all", spec=SPEC, config=CONFIG,
            grids=GRIDS[:2], iterations=SEU_ITERS,
        )
        plan = FaultPlan(
            seed=21,
            faults=tuple(
                SEUFault(at_touch=g * TOUCHES_PER_GRID + 1, site="block-buffer")
                for g in range(2)
            ),
        )
        with arm(plan) as inj:
            result = sched.execute_batch(job)
        assert len(inj.fired) == 2
        assert result.status == "completed"
        assert result.attempts == 2 and result.dispatches == 1
        for g in range(2):
            assert np.array_equal(
                result.results[g], reference_run(GRIDS[g], SPEC, SEU_ITERS)
            )
    finally:
        sched.close()
