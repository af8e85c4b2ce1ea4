"""Deadline x retry x checkpoint-replay interplay at the scheduler layer.

Each recovery mechanism charges the simulated clock differently: a
queue-level retry re-runs the *whole* kernel (plus backoff), while a
checkpoint rollback replays only the tail since the last snapshot.  A
per-job deadline prices both: these tests pin down that the cheaper
recovery can convert a deadline miss into a completion, that replay
time is charged against the budget like any other work, and that every
cell of the (deadline, retry, checkpoint) matrix terminates with either
a bit-exact result or a typed error with the result discarded.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.core import BlockingConfig, StencilSpec, make_grid, reference_run
from repro.faults import FaultPlan, SEUFault, TransferFault, arm
from repro.runtime import (
    CheckpointPolicy,
    RetryPolicy,
    StencilJob,
    StencilScheduler,
)

SPEC = StencilSpec.star(2, 1)
CONFIG = BlockingConfig(dims=2, radius=1, bsize_x=64, parvec=4, partime=2)
GRID = make_grid((16, 64), "mixed", seed=7)
REF_4 = reference_run(GRID, SPEC, 4)
LONG_ITERS = 100
REF_LONG = reference_run(GRID, SPEC, LONG_ITERS)

#: one-shot SEU near the end of the long run: a whole-run retry pays
#: ~100 passes again, a rollback to the pass-88 snapshot replays <= 8
LATE_SEU = SEUFault(at_touch=91, site="block-buffer")


def job(job_id: str, **kwargs) -> StencilJob:
    kwargs.setdefault("iterations", 4)
    return StencilJob(job_id=job_id, spec=SPEC, config=CONFIG, grids=(GRID,), **kwargs)


def run_one(sched: StencilScheduler, j: StencilJob, plan: FaultPlan | None):
    if plan is None:
        return sched.execute_job(j)
    with arm(plan):
        return sched.execute_job(j)


def clean_elapsed_s(checkpoint: CheckpointPolicy | None = None) -> float:
    """Deterministic simulated wall time of one clean long job."""
    result = run_one(
        StencilScheduler(devices=1),
        job("clean", iterations=LONG_ITERS, checkpoint=checkpoint),
        None,
    )
    assert result.status == "completed"
    return result.elapsed_s


# -- replay is the deadline-friendly recovery --------------------------------- #


def test_checkpoint_replay_converts_deadline_miss_into_completion() -> None:
    # budget fits one clean run plus a small tail, but not two runs
    deadline_s = clean_elapsed_s() * 1.5

    # whole-run retry: detection burns one full kernel, the retry runs
    # another -- the recovered bits arrive late and are discarded
    retried = run_one(
        StencilScheduler(
            devices=1,
            retry_policy=RetryPolicy(max_retries=2, backoff_s=0.0),
        ),
        job("retry", iterations=LONG_ITERS, deadline_s=deadline_s),
        FaultPlan(seed=21, faults=(LATE_SEU,)),
    )
    assert retried.status == "failed"
    assert retried.error_type == "DeadlineExceededError"
    assert retried.result is None
    assert retried.attempts == 2  # it *did* recover -- just too late

    # same fault, same budget, but a rollback replays only the tail
    healed = run_one(
        StencilScheduler(devices=1),
        job(
            "replay",
            iterations=LONG_ITERS,
            deadline_s=deadline_s,
            checkpoint=CheckpointPolicy(every=8),
        ),
        FaultPlan(seed=21, faults=(LATE_SEU,)),
    )
    assert healed.status == "completed"
    assert healed.rollbacks == 1
    assert 0 < healed.replayed_passes <= 8
    assert healed.elapsed_s <= deadline_s
    assert np.array_equal(healed.result, REF_LONG)


def test_replay_time_is_charged_against_the_deadline() -> None:
    # a budget the clean checkpointed run just fits leaves no room for
    # even one replayed pass: the healed result must still be discarded
    policy = CheckpointPolicy(every=8)
    deadline_s = clean_elapsed_s(policy) * (1.0 + 1e-9)
    result = run_one(
        StencilScheduler(devices=1),
        job(
            "late-heal",
            iterations=LONG_ITERS,
            deadline_s=deadline_s,
            checkpoint=policy,
        ),
        FaultPlan(seed=22, faults=(LATE_SEU,)),
    )
    assert result.status == "failed"
    assert result.error_type == "DeadlineExceededError"
    assert result.result is None
    # the discarded result still reports what the recovery cost
    assert result.rollbacks == 1
    assert result.replayed_passes > 0
    assert result.elapsed_s > deadline_s


def test_retry_and_rollback_compose_under_a_generous_deadline() -> None:
    # a corrupted write forces a queue-level retry; the SEU later in the
    # run heals via rollback -- both recoveries fit a generous budget
    plan = FaultPlan(
        seed=23,
        faults=(TransferFault(direction="write", mode="corrupt"), LATE_SEU),
    )
    result = run_one(
        StencilScheduler(
            devices=1,
            retry_policy=RetryPolicy(max_retries=2, backoff_s=0.0),
        ),
        job(
            "both",
            iterations=LONG_ITERS,
            deadline_s=clean_elapsed_s() * 4.0,
            checkpoint=CheckpointPolicy(every=8),
        ),
        plan,
    )
    assert result.status == "completed"
    assert result.rollbacks == 1
    assert np.array_equal(result.result, REF_LONG)


# -- full matrix: bounded termination, bit-exact or typed --------------------- #

DEADLINES = (None, 10.0, 0.5)
RETRIES = (0, 2)
CHECKPOINTS = (None, CheckpointPolicy(every=8))
TYPED = {"FaultDetectedError", "DeadlineExceededError", "WatchdogTimeoutError"}


@pytest.mark.parametrize(
    "deadline_s,retries,checkpoint",
    list(itertools.product(DEADLINES, RETRIES, CHECKPOINTS)),
)
def test_matrix_terminates_bit_exact_or_typed(
    deadline_s, retries, checkpoint
) -> None:
    # the 1 s backoff prices retries against the 0.5 s deadline cells
    plan = FaultPlan(
        seed=29, faults=(TransferFault(direction="write", mode="corrupt"),)
    )
    result = run_one(
        StencilScheduler(
            devices=1,
            retry_policy=RetryPolicy(max_retries=retries, backoff_s=1.0),
        ),
        job("cell", deadline_s=deadline_s, checkpoint=checkpoint),
        plan,
    )
    if result.status == "completed":
        assert np.array_equal(result.result, REF_4)
        if deadline_s is not None:
            assert result.elapsed_s <= deadline_s
    else:
        assert result.status == "failed"
        assert result.error_type in TYPED
        assert result.result is None


@pytest.mark.parametrize("retries", RETRIES)
def test_matrix_tight_deadline_outcome_depends_on_retry_budget(
    retries,
) -> None:
    # same fault, same 0.5 s deadline: no retries -> the fault is final;
    # retries -> the recovery lands but its backoff blew the budget
    plan = FaultPlan(
        seed=31, faults=(TransferFault(direction="write", mode="corrupt"),)
    )
    result = run_one(
        StencilScheduler(
            devices=1,
            retry_policy=RetryPolicy(max_retries=retries, backoff_s=1.0),
        ),
        job("tight", deadline_s=0.5),
        plan,
    )
    assert result.status == "failed"
    expected = "FaultDetectedError" if retries == 0 else "DeadlineExceededError"
    assert result.error_type == expected
