"""Retry policy, buffer CRC API and the hardened command queue."""

from __future__ import annotations

import numpy as np
import pytest

import gc

from repro.core import BlockingConfig, StencilSpec, make_grid, reference_run
from repro.errors import ConfigurationError, FaultDetectedError, WatchdogTimeoutError
from repro.faults import (
    ChannelStallFault,
    FaultPlan,
    FmaxDerateFault,
    SEUFault,
    TransferFault,
    arm,
    crc32_array,
)
from repro.runtime.checkpoint import CheckpointPolicy
from repro.runtime.host import (
    Buffer,
    CommandQueue,
    HostDevice,
    RetryPolicy,
    StencilProgram,
)

GRID = make_grid((24, 96), "mixed", seed=7)


def make_program() -> StencilProgram:
    spec = StencilSpec.star(2, 2)
    cfg = BlockingConfig(dims=2, radius=2, bsize_x=64, parvec=4, partime=2)
    return StencilProgram(spec, cfg)


# -- Buffer public API ---------------------------------------------------- #


def test_buffer_write_tracks_crc() -> None:
    buf = Buffer(GRID.nbytes)
    assert buf.crc is None
    buf.write(GRID)
    assert buf.crc == crc32_array(GRID)
    assert np.array_equal(buf.data, GRID)
    assert buf.verify()


def test_buffer_write_copies_payload() -> None:
    buf = Buffer(GRID.nbytes)
    host = GRID.copy()
    buf.write(host)
    host[0, 0] += 1.0
    assert np.array_equal(buf.data, GRID)  # device copy unaffected


def test_buffer_write_rejects_size_mismatch() -> None:
    buf = Buffer(GRID.nbytes)
    with pytest.raises(ConfigurationError):
        buf.write(GRID[:-1])


def test_buffer_invalidate_and_verify() -> None:
    buf = Buffer(GRID.nbytes)
    assert not buf.verify()  # unwritten buffers never verify
    buf.write(GRID)
    buf.invalidate()
    assert buf.crc is None
    assert not buf.verify()


def test_buffer_view_bypasses_crc() -> None:
    buf = Buffer(GRID.nbytes)
    buf.write(GRID)
    buf.view().reshape(-1)[0] += 1.0  # hardware-level corruption
    assert not buf.verify()  # ...which the scrub notices


# -- RetryPolicy ----------------------------------------------------------- #


def test_retry_policy_validation() -> None:
    with pytest.raises(ConfigurationError):
        RetryPolicy(max_retries=-1)
    with pytest.raises(ConfigurationError):
        RetryPolicy(backoff_s=-1.0)
    with pytest.raises(ConfigurationError):
        RetryPolicy(multiplier=0.5)


def test_retry_policy_backoff_is_exponential() -> None:
    policy = RetryPolicy(max_retries=3, backoff_s=1e-4, multiplier=2.0)
    assert policy.backoff_for(1) == pytest.approx(1e-4)
    assert policy.backoff_for(2) == pytest.approx(2e-4)
    assert policy.backoff_for(3) == pytest.approx(4e-4)


# -- Event metadata --------------------------------------------------------- #


def test_events_default_to_single_attempt() -> None:
    queue = CommandQueue()
    buf = Buffer(GRID.nbytes)
    event = queue.enqueue_write_buffer(buf, GRID)
    assert event.attempts == 1 and event.retry_wait_s == 0.0


def test_write_transfer_corruption_retried_with_backoff() -> None:
    policy = RetryPolicy(max_retries=2, backoff_s=1e-4, multiplier=2.0)
    plan = FaultPlan(seed=1, faults=(TransferFault(direction="write", mode="corrupt"),))
    with arm(plan) as inj:
        queue = CommandQueue(retry_policy=policy)
        buf = Buffer(GRID.nbytes)
        event = queue.enqueue_write_buffer(buf, GRID)
        assert len(inj.fired) == 1
        assert inj.detections and inj.recoveries
    assert event.attempts == 2
    assert event.retry_wait_s == pytest.approx(policy.backoff_for(1))
    assert event.duration_s > event.retry_wait_s  # plus two transfer charges
    assert queue.transfer_bytes == 2 * GRID.nbytes  # both attempts billed
    assert np.array_equal(buf.data, GRID)
    assert buf.verify()


def test_read_transfer_corruption_retried() -> None:
    plan = FaultPlan(seed=2, faults=(TransferFault(direction="read", mode="corrupt"),))
    queue = CommandQueue()
    buf = Buffer(GRID.nbytes)
    queue.enqueue_write_buffer(buf, GRID)
    with arm(plan) as inj:
        data, event = queue.enqueue_read_buffer(buf)
        assert len(inj.fired) == 1
    assert event.attempts == 2
    assert np.array_equal(data, GRID)


def test_transfer_retries_exhausted_raises() -> None:
    plan = FaultPlan(seed=3, faults=(TransferFault(direction="write", mode="fail"),))
    with arm(plan):
        queue = CommandQueue(retry_policy=RetryPolicy(max_retries=0))
        buf = Buffer(GRID.nbytes)
        with pytest.raises(FaultDetectedError):
            queue.enqueue_write_buffer(buf, GRID)
    with pytest.raises(Exception):
        _ = buf.data  # the aborted transfer left nothing behind


# -- DRAM scrub + re-upload -------------------------------------------------- #


def test_dram_seu_scrubbed_and_reuploaded_before_kernel() -> None:
    program = make_program()
    plan = FaultPlan(seed=4, faults=(SEUFault(site="dram", at_touch=0),))
    with arm(plan) as inj:
        queue = CommandQueue(HostDevice(program.board))
        src, dst = Buffer(GRID.nbytes), Buffer(GRID.nbytes)
        queue.enqueue_write_buffer(src, GRID)
        queue.enqueue_kernel(program, src, dst, 4)
        assert len(inj.fired) == 1
        assert any("scrub" in d for d in inj.detections)
        assert any("re-uploaded" in r for r in inj.recoveries)
    assert [e.name for e in queue.events] == [
        "write-buffer",
        "reupload-buffer",
        "stencil-kernel",
    ]
    out, _ = queue.enqueue_read_buffer(dst)
    assert np.array_equal(out, reference_run(GRID, program.spec, 4))


def test_scrub_without_mirror_raises() -> None:
    queue = CommandQueue()
    buf = Buffer(GRID.nbytes)
    buf.write(GRID)  # written directly: the queue holds no mirror
    buf.view().reshape(-1)[0] += 1.0
    with pytest.raises(FaultDetectedError):
        queue._scrub(buf)


# -- Watchdog + fmax derate --------------------------------------------------- #


def test_watchdog_catches_derated_kernel_and_retry_recovers() -> None:
    program = make_program()
    nominal = program.kernel_time_s(GRID.shape, 4)
    plan = FaultPlan(seed=5, faults=(FmaxDerateFault(factor=0.5, at_kernel=0),))
    with arm(plan) as inj:
        queue = CommandQueue(HostDevice(program.board))
        src, dst = Buffer(GRID.nbytes), Buffer(GRID.nbytes)
        queue.enqueue_write_buffer(src, GRID)
        event = queue.enqueue_kernel(
            program, src, dst, 4, watchdog_s=1.5 * nominal
        )
        assert len(inj.fired) == 1
        assert any("watchdog" in d for d in inj.detections)
    assert event.attempts == 2
    # killed attempt charged at the deadline, then backoff, then clean run
    assert event.duration_s == pytest.approx(
        1.5 * nominal + event.retry_wait_s + nominal
    )
    assert np.array_equal(dst.data, reference_run(GRID, program.spec, 4))


def test_watchdog_exhausted_raises_timeout() -> None:
    program = make_program()
    nominal = program.kernel_time_s(GRID.shape, 4)
    queue = CommandQueue(retry_policy=RetryPolicy(max_retries=0))
    src, dst = Buffer(GRID.nbytes), Buffer(GRID.nbytes)
    queue.enqueue_write_buffer(src, GRID)
    with pytest.raises(WatchdogTimeoutError):
        queue.enqueue_kernel(program, src, dst, 4, watchdog_s=nominal / 2)


def test_watchdog_rejects_nonpositive_deadline() -> None:
    program = make_program()
    queue = CommandQueue()
    src, dst = Buffer(GRID.nbytes), Buffer(GRID.nbytes)
    queue.enqueue_write_buffer(src, GRID)
    with pytest.raises(ConfigurationError):
        queue.enqueue_kernel(program, src, dst, 4, watchdog_s=0.0)


def test_derate_reaches_a_batched_launch_past_the_model_time_memo() -> None:
    """Disarmed, a program memoises its modeled batch times; armed, every
    launch re-evaluates them, so a derate lands on exactly its launch
    and never reaches the memo."""
    program = make_program()
    grids = [make_grid((24, 96), "mixed", seed=s) for s in (7, 8, 9)]
    slab = np.stack(grids)
    key = (grids[0].shape, 4, len(grids))

    def launch() -> float:
        queue = CommandQueue(HostDevice(program.board))
        src, dst = Buffer(slab.nbytes), Buffer(slab.nbytes)
        queue.enqueue_write_buffer(src, slab)
        event, batch = queue.enqueue_batch_kernel(
            program, src, dst, 4, n_grids=len(grids)
        )
        assert batch.ok
        out, _ = queue.enqueue_read_buffer(dst)
        for g, grid in enumerate(grids):
            assert np.array_equal(out[g], reference_run(grid, program.spec, 4))
        return event.duration_s

    plan = FaultPlan(seed=5, faults=(FmaxDerateFault(factor=0.5, at_kernel=0),))
    with arm(plan) as inj:
        derated = launch()  # kernel query 0: this launch's only one
        assert len(inj.fired) == 1
        armed_clean = launch()
    nominal = launch()
    assert nominal == program.batch_kernel_time_s(*key)
    assert armed_clean == nominal
    # the kernel part runs at half the clock: twice as long, same launch
    # overhead
    from repro.models.performance import LAUNCH_OVERHEAD_S

    assert derated - LAUNCH_OVERHEAD_S == pytest.approx(
        2 * (nominal - LAUNCH_OVERHEAD_S)
    )
    # the memo, filled disarmed, does not shadow a later armed derate
    with arm(plan):
        assert launch() == derated


# -- terminal *-failed events (clock / event-log / byte agreement) ----------- #


def test_write_exhaustion_records_terminal_event() -> None:
    plan = FaultPlan(
        seed=21,
        faults=(
            TransferFault(at_transfer=0, direction="write", mode="fail"),
            TransferFault(at_transfer=1, direction="write", mode="fail"),
        ),
    )
    policy = RetryPolicy(max_retries=1, backoff_s=1e-4)
    with arm(plan):
        queue = CommandQueue(retry_policy=policy)
        buf = Buffer(GRID.nbytes)
        with pytest.raises(FaultDetectedError):
            queue.enqueue_write_buffer(buf, GRID)
    # the failed attempts moved bytes and burned time: the terminal event
    # pins both so the clock, event log and byte counters agree
    (event,) = queue.events
    assert event.name == "write-buffer-failed"
    assert event.attempts == 2
    assert event.retry_wait_s == pytest.approx(policy.backoff_for(1))
    assert queue.transfer_bytes == 2 * GRID.nbytes
    expected = 2 * GRID.nbytes / (6.0 * 1e9) + event.retry_wait_s
    assert event.duration_s == pytest.approx(expected)
    assert queue.clock_s == pytest.approx(event.end_s)


def test_read_exhaustion_records_terminal_event() -> None:
    plan = FaultPlan(
        seed=22,
        faults=(
            TransferFault(at_transfer=0, direction="read", mode="corrupt"),
            TransferFault(at_transfer=1, direction="read", mode="corrupt"),
        ),
    )
    queue = CommandQueue(retry_policy=RetryPolicy(max_retries=1))
    buf = Buffer(GRID.nbytes)
    queue.enqueue_write_buffer(buf, GRID)
    clock_before = queue.clock_s
    with arm(plan):
        with pytest.raises(FaultDetectedError):
            queue.enqueue_read_buffer(buf)
    event = queue.events[-1]
    assert event.name == "read-buffer-failed"
    assert event.attempts == 2
    assert queue.clock_s > clock_before


def test_kernel_exhaustion_records_terminal_event() -> None:
    program = make_program()
    plan = FaultPlan(seed=23, faults=(SEUFault(site="block-buffer", at_touch=1),))
    with arm(plan):
        queue = CommandQueue(retry_policy=RetryPolicy(max_retries=0))
        src, dst = Buffer(GRID.nbytes), Buffer(GRID.nbytes)
        queue.enqueue_write_buffer(src, GRID)
        clock_before = queue.clock_s
        with pytest.raises(FaultDetectedError):
            queue.enqueue_kernel(program, src, dst, 4)
    event = queue.events[-1]
    assert event.name == "stencil-kernel-failed"
    assert event.attempts == 1
    # the failed attempt burned a full modeled kernel run
    assert event.duration_s == pytest.approx(program.kernel_time_s(GRID.shape, 4))
    assert queue.clock_s == pytest.approx(clock_before + event.duration_s)


# -- host-mirror lifetime (id-reuse regression) ------------------------------- #


def test_host_mirror_dropped_when_buffer_collected() -> None:
    """The mirror is keyed by the buffer object (weakly), not by ``id()``:
    an ``id()`` key outlives its buffer, and CPython reuses ids, so a
    stale mirror could resurrect the *wrong* data into a fresh buffer on
    scrub recovery."""
    queue = CommandQueue()
    buf = Buffer(GRID.nbytes)
    queue.enqueue_write_buffer(buf, GRID)
    assert len(queue._host_mirror) == 1
    del buf
    gc.collect()
    assert len(queue._host_mirror) == 0  # nothing left to resurrect from


def test_host_mirror_scrub_recovers_right_data_per_buffer() -> None:
    queue = CommandQueue()
    a_data = GRID
    b_data = GRID + 1.0
    a, b = Buffer(GRID.nbytes), Buffer(GRID.nbytes)
    queue.enqueue_write_buffer(a, a_data)
    queue.enqueue_write_buffer(b, b_data)
    a.view().reshape(-1)[0] += 3.0  # hardware-level corruption
    b.view().reshape(-1)[0] += 5.0
    queue._scrub(a)
    queue._scrub(b)
    assert np.array_equal(a.data, a_data)
    assert np.array_equal(b.data, b_data)


# -- watchdog x checkpoint x retry accounting (S4) ----------------------------- #

CKPT_SPEC = StencilSpec.star(2, 1)
CKPT_CONFIG = BlockingConfig(dims=2, radius=1, bsize_x=64, parvec=4, partime=2)
CKPT_GRID = make_grid((16, 64), "mixed", seed=9)


def stall_plan(seed: int = 31) -> FaultPlan:
    # a 300-call stall burst against the default 256-spin channel
    # watchdog: detected as WatchdogTimeoutError mid-pass
    return FaultPlan(seed=seed, faults=(ChannelStallFault(at_op=0, duration=300),))


def test_midpass_watchdog_without_checkpoint_uses_queue_retry() -> None:
    program = StencilProgram(CKPT_SPEC, CKPT_CONFIG)
    policy = RetryPolicy(max_retries=2, backoff_s=1e-4)
    with arm(stall_plan()) as inj:
        queue = CommandQueue(retry_policy=policy)
        src, dst = Buffer(CKPT_GRID.nbytes), Buffer(CKPT_GRID.nbytes)
        queue.enqueue_write_buffer(src, CKPT_GRID)
        event = queue.enqueue_kernel(program, src, dst, 100)
        assert any("watchdog" in d.lower() for d in inj.detections)
    # the whole run was retried at the queue layer: the completion event
    # carries the retry accounting, and no rollback happened
    assert event.attempts == 2
    assert event.retry_wait_s == pytest.approx(policy.backoff_for(1))
    assert event.rollbacks == 0 and event.replayed_passes == 0
    assert np.array_equal(dst.data, reference_run(CKPT_GRID, CKPT_SPEC, 100))


def test_midpass_watchdog_with_checkpoint_rolls_back_in_place() -> None:
    program = StencilProgram(CKPT_SPEC, CKPT_CONFIG)
    with arm(stall_plan()) as inj:
        queue = CommandQueue()
        src, dst = Buffer(CKPT_GRID.nbytes), Buffer(CKPT_GRID.nbytes)
        queue.enqueue_write_buffer(src, CKPT_GRID)
        event = queue.enqueue_kernel(
            program, src, dst, 100, checkpoint=CheckpointPolicy(every=8)
        )
        assert any("watchdog" in d.lower() for d in inj.detections)
        assert any("rolled back" in r for r in inj.recoveries)
    # WatchdogTimeoutError is a FaultDetectedError: the rollback path
    # absorbs it below the queue, so the retry layer never engages
    assert event.attempts == 1
    assert event.retry_wait_s == 0.0
    assert event.rollbacks == 1
    assert event.replayed_passes <= 8
    assert event.checkpoint_overhead_s > 0.0
    assert np.array_equal(dst.data, reference_run(CKPT_GRID, CKPT_SPEC, 100))


def test_midpass_watchdog_with_exhausted_rollback_budget_escalates() -> None:
    program = StencilProgram(CKPT_SPEC, CKPT_CONFIG)
    with arm(stall_plan()):
        queue = CommandQueue(retry_policy=RetryPolicy(max_retries=0))
        src, dst = Buffer(CKPT_GRID.nbytes), Buffer(CKPT_GRID.nbytes)
        queue.enqueue_write_buffer(src, CKPT_GRID)
        with pytest.raises(WatchdogTimeoutError):
            queue.enqueue_kernel(
                program,
                src,
                dst,
                100,
                checkpoint=CheckpointPolicy(every=8, max_rollbacks=0),
            )
    # the escalated watchdog still leaves a terminal event behind
    assert queue.events[-1].name == "stencil-kernel-failed"
