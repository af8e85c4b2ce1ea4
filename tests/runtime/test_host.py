"""Tests for the OpenCL-like host runtime emulation."""

from __future__ import annotations

import contextlib

import numpy as np
import pytest

from repro.core import BlockingConfig, StencilSpec, make_grid, reference_run
from repro.errors import ConfigurationError, FaultDetectedError, SimulationError
from repro.faults import FaultPlan, SEUFault, arm
from repro.runtime import StencilJob, StencilScheduler, host
from repro.runtime.host import (
    POWER_SAMPLE_INTERVAL_S,
    Buffer,
    CommandQueue,
    HostDevice,
    PowerSensor,
    RetryPolicy,
    StencilProgram,
    benchmark_kernel,
)


def make_program(radius: int = 2, partime: int = 4) -> StencilProgram:
    spec = StencilSpec.star(2, radius)
    cfg = BlockingConfig(
        dims=2, radius=radius, bsize_x=256, parvec=4, partime=partime
    )
    return StencilProgram(spec, cfg)


def test_program_build_generates_source_and_area() -> None:
    program = make_program()
    assert "stencil_compute" in program.source
    assert program.area.fits
    assert program.fmax_mhz > 0


def test_program_rejects_oversized_design() -> None:
    spec = StencilSpec.star(3, 4)
    cfg = BlockingConfig(
        dims=3, radius=4, bsize_x=256, bsize_y=256, parvec=16, partime=8
    )
    with pytest.raises(ConfigurationError):
        StencilProgram(spec, cfg)


def test_kernel_numerics_match_reference() -> None:
    program = make_program()
    grid = make_grid((48, 512), "mixed", seed=1)
    queue = CommandQueue()
    src, dst = Buffer(grid.nbytes), Buffer(grid.nbytes)
    queue.enqueue_write_buffer(src, grid)
    queue.enqueue_kernel(program, src, dst, 6)
    out, _ = queue.enqueue_read_buffer(dst)
    assert np.array_equal(out, reference_run(grid, program.spec, 6))


def test_kernel_time_excludes_transfers() -> None:
    """§IV.C: only kernel execution is measured; transfers are separate
    events on the clock."""
    program = make_program()
    grid = make_grid((48, 512), "random")
    queue = CommandQueue()
    src, dst = Buffer(grid.nbytes), Buffer(grid.nbytes)
    w = queue.enqueue_write_buffer(src, grid)
    k = queue.enqueue_kernel(program, src, dst, 4)
    assert k.duration_s == pytest.approx(
        program.kernel_time_s(grid.shape, 4)
    )
    assert w.duration_s > 0
    assert k.start_s == pytest.approx(w.end_s)  # in-order queue
    assert queue.transfer_bytes == grid.nbytes


def test_clock_monotone_and_finish() -> None:
    program = make_program()
    grid = make_grid((32, 256), "random")
    queue = CommandQueue()
    src, dst = Buffer(grid.nbytes), Buffer(grid.nbytes)
    queue.enqueue_write_buffer(src, grid)
    for _ in range(3):
        queue.enqueue_kernel(program, src, dst, 2)
    ends = [e.end_s for e in queue.events]
    assert ends == sorted(ends)
    assert queue.finish() == pytest.approx(ends[-1])


def test_buffer_guards() -> None:
    with pytest.raises(ConfigurationError):
        Buffer(0)
    buf = Buffer(64)
    with pytest.raises(SimulationError):
        _ = buf.data
    queue = CommandQueue()
    with pytest.raises(ConfigurationError):
        queue.enqueue_write_buffer(buf, np.zeros(32, np.float32))


def test_power_sensor_sampling() -> None:
    sensor = PowerSensor(70.0, ripple_watts=2.0)
    # averaging many 10 ms samples cancels the ripple
    avg = sensor.average_over(0.0, 5.0)
    assert avg == pytest.approx(70.0, abs=0.3)
    # a window shorter than one interval still yields one sample
    short = sensor.average_over(0.0, POWER_SAMPLE_INTERVAL_S / 10)
    assert 67.0 < short < 73.0
    with pytest.raises(ConfigurationError):
        sensor.average_over(1.0, 1.0)
    with pytest.raises(ConfigurationError):
        PowerSensor(0.0)


def test_power_sensor_subinterval_window_boundaries() -> None:
    """Windows shorter than the 10 ms sampling interval (regression for
    the unreachable fallback branch this code used to carry): the sample
    at ``start_s`` is always taken, and the window end is exclusive."""
    sensor = PowerSensor(70.0, ripple_watts=2.0)
    t0 = 0.0137
    # any sub-interval window reads the sensor exactly once, at start_s
    for width in (1e-9, POWER_SAMPLE_INTERVAL_S / 2, POWER_SAMPLE_INTERVAL_S * 0.999):
        assert sensor.average_over(t0, t0 + width) == sensor.sample(t0)
    # a window of exactly one interval still holds a single sample
    # (end is exclusive, so the sample at t0 + interval is not taken)
    one = sensor.average_over(t0, t0 + POWER_SAMPLE_INTERVAL_S)
    assert one == sensor.sample(t0)
    # just past one interval, the second sample enters the average
    two = sensor.average_over(t0, t0 + POWER_SAMPLE_INTERVAL_S * 1.001)
    expected = (sensor.sample(t0) + sensor.sample(t0 + POWER_SAMPLE_INTERVAL_S)) / 2
    assert two == pytest.approx(expected)


def test_power_sensor_long_window_sample_count_is_exact() -> None:
    """Sample times are indexed, not accumulated (regression: ``t +=
    interval`` drifts by one ulp per step, and over a multi-second window
    the accumulated error walks an extra sample across the exclusive end
    boundary — 361 samples where the paper's 10 ms grid holds 360)."""
    sensor = PowerSensor(70.0, ripple_watts=2.0)
    sampled_at: list[float] = []
    orig = sensor.sample

    def counting_sample(t: float) -> float:
        sampled_at.append(t)
        return orig(t)

    sensor.sample = counting_sample  # type: ignore[method-assign]
    for n_intervals in (360, 1000, 7200):
        sampled_at.clear()
        window = n_intervals * POWER_SAMPLE_INTERVAL_S
        avg = sensor.average_over(0.0, window)
        assert len(sampled_at) == n_intervals
        # and each sample sits exactly on the grid
        assert sampled_at[-1] == (n_intervals - 1) * POWER_SAMPLE_INTERVAL_S
        assert avg == pytest.approx(sum(orig(t) for t in sampled_at) / n_intervals)


def test_benchmark_kernel_procedure() -> None:
    """Five repeats, eq.-3 GCell/s, power averaged over kernel windows."""
    program = make_program()
    grid = make_grid((64, 512), "random", seed=2)
    bench = benchmark_kernel(program, grid, iterations=8, repeats=5)
    assert bench.repeats == 5
    cells = grid.size
    assert bench.gcell_s == pytest.approx(
        cells * 8 / bench.mean_kernel_s / 1e9
    )
    assert bench.gflop_s == pytest.approx(bench.gcell_s * program.spec.flops_per_cell)
    assert bench.mean_power_w == pytest.approx(program.power_watts(), rel=0.05)
    assert bench.gflops_per_watt > 0
    assert np.array_equal(bench.result, reference_run(grid, program.spec, 8))
    with pytest.raises(ConfigurationError):
        benchmark_kernel(program, grid, 8, repeats=0)


def test_host_device_sensor_uses_design_power() -> None:
    program = make_program()
    sensor = HostDevice().sensor_for(program)
    assert sensor.base_watts == pytest.approx(program.power_watts())


# -- batched kernel enqueue -------------------------------------------------- #


def _batch_setup(n_grids: int = 3):
    spec = StencilSpec.star(2, 1)
    cfg = BlockingConfig(dims=2, radius=1, bsize_x=32, parvec=4, partime=2)
    program = StencilProgram(spec, cfg)
    grids = [make_grid((12, 20), "mixed", seed=90 + i) for i in range(n_grids)]
    slab = np.stack(grids).astype(np.float32)
    return program, grids, slab


def test_batch_kernel_numerics_match_per_grid_kernels() -> None:
    program, grids, slab = _batch_setup()
    queue = CommandQueue()
    src, dst = Buffer(slab.nbytes), Buffer(slab.nbytes)
    queue.enqueue_write_buffer(src, slab)
    queue.enqueue_batch_kernel(program, src, dst, 4, n_grids=len(grids))
    out, _ = queue.enqueue_read_buffer(dst)
    for g, grid in enumerate(grids):
        assert np.array_equal(out[g], reference_run(grid, program.spec, 4))


def test_batch_kernel_time_scales_with_n_grids() -> None:
    program, grids, slab = _batch_setup()
    queue = CommandQueue()
    src, dst = Buffer(slab.nbytes), Buffer(slab.nbytes)
    queue.enqueue_write_buffer(src, slab)
    event, batch = queue.enqueue_batch_kernel(
        program, src, dst, 4, n_grids=len(grids)
    )
    assert batch.ok
    assert event.duration_s == pytest.approx(
        program.batch_kernel_time_s(grids[0].shape, 4, len(grids))
    )
    # per-grid work scales linearly; launch overhead is paid once
    from repro.models.performance import LAUNCH_OVERHEAD_S

    single = program.kernel_time_s(grids[0].shape, 4)
    assert event.duration_s == pytest.approx(
        3 * single + LAUNCH_OVERHEAD_S
    )


def test_batch_kernel_validates_inputs() -> None:
    program, grids, slab = _batch_setup()
    queue = CommandQueue()
    src, dst = Buffer(slab.nbytes), Buffer(slab.nbytes)
    queue.enqueue_write_buffer(src, slab)
    with pytest.raises(ConfigurationError):
        queue.enqueue_batch_kernel(program, src, dst, 4, n_grids=0)
    with pytest.raises(ConfigurationError):
        queue.enqueue_batch_kernel(
            program, src, dst, 4, n_grids=3, watchdog_s=0.0
        )
    with pytest.raises(ConfigurationError):
        # slab leading axis disagrees with n_grids
        queue.enqueue_batch_kernel(program, src, dst, 4, n_grids=5)


# -- disarmed vs armed host path -------------------------------------------- #


def _round_trip(program, grid, iterations):
    queue = CommandQueue(HostDevice(program.board))
    src, dst = Buffer(grid.nbytes), Buffer(grid.nbytes)
    queue.enqueue_write_buffer(src, grid)
    queue.enqueue_kernel(program, src, dst, iterations)
    out, _ = queue.enqueue_read_buffer(dst)
    return queue, src, dst, out


def _count_host_crcs(monkeypatch) -> list:
    calls: list = []
    real = host.crc32_array

    def counting(array):
        calls.append(array.nbytes)
        return real(array)

    monkeypatch.setattr(host, "crc32_array", counting)
    return calls


def test_armed_round_trip_checks_every_transfer(monkeypatch) -> None:
    """Armed (even with an empty plan) the host path keeps every check:
    the write's golden and device-side CRCs, the source scrub and the
    read's CRC against the device buffer's — five, as before the
    disarmed path lost its CRCs — and a mirror of the written buffer."""
    program = make_program()
    grid = make_grid((48, 512), "mixed", seed=3)
    calls = _count_host_crcs(monkeypatch)
    with arm(FaultPlan(seed=0)):
        queue, src, _, out = _round_trip(program, grid, 6)
    assert len(calls) == 5
    assert set(calls) == {grid.nbytes}
    assert queue._host_mirror.get(src) is not None
    assert np.array_equal(out, reference_run(grid, program.spec, 6))


def test_disarmed_round_trip_makes_no_crc_and_no_copy(monkeypatch) -> None:
    """Disarmed, the source buffer adopts the caller's C-contiguous
    float32 grid and the read hands back the launch's own output slab:
    no CRC and no host copy, and the caller's bytes are never written."""
    program = make_program()
    grid = make_grid((48, 512), "mixed", seed=3)
    caller = grid.copy()
    calls = _count_host_crcs(monkeypatch)
    launched: list = []  # the output slab each launch writes into
    real = program.execute_batch

    def execute_batch(slab, iterations, checkpoint=None, out=None):
        launched.append(out)
        return real(slab, iterations, checkpoint=checkpoint, out=out)

    monkeypatch.setattr(program, "execute_batch", execute_batch)
    queue, src, dst, out = _round_trip(program, caller, 6)
    assert calls == []
    assert np.shares_memory(src.data, caller)
    assert caller.tobytes() == grid.tobytes()
    assert np.array_equal(out, reference_run(grid, program.spec, 6))
    assert len(launched) == 1 and np.shares_memory(out, launched[0])
    assert out is dst.data


@pytest.mark.parametrize("form", ["float64", "strided", "two-grids"])
def test_disarmed_write_copies_what_it_cannot_adopt(form) -> None:
    """A grid of another dtype, a strided view and several grids are
    converted or stacked by one copy; no caller array is ever written."""
    program = make_program()
    grid = make_grid((48, 512), "mixed", seed=4)
    if form == "float64":
        callers = [grid.astype(np.float64)]
        host_array = callers[0]
    elif form == "strided":
        callers = [np.repeat(grid, 2, axis=1)]
        host_array = callers[0][:, ::2]
    else:
        callers = [grid.copy(), grid[::-1].copy()]
        host_array = tuple(callers)
    before = [c.tobytes() for c in callers]
    n_grids = len(callers) if form == "two-grids" else None
    queue = CommandQueue()
    src = Buffer(grid.nbytes * (n_grids or 1))
    dst = Buffer(src.nbytes)
    queue.enqueue_write_buffer(src, host_array)
    assert not any(np.shares_memory(c, src.data) for c in callers)
    if n_grids is None:
        queue.enqueue_kernel(program, src, dst, 6)
    else:
        queue.enqueue_batch_kernel(program, src, dst, 6, n_grids)
    out, _ = queue.enqueue_read_buffer(dst)
    assert [c.tobytes() for c in callers] == before
    expected = [reference_run(grid, program.spec, 6)]
    if n_grids is not None:
        expected.append(reference_run(grid[::-1], program.spec, 6))
    assert np.array_equal(out, expected[0] if n_grids is None else expected)


def test_armed_round_trip_copies_and_aliases_nothing() -> None:
    """Armed, the write still copies the caller's grid and the read
    still copies the device buffer: nothing is shared across the link."""
    program = make_program()
    grid = make_grid((48, 512), "mixed", seed=3)
    caller = grid.copy()
    queue = CommandQueue(HostDevice(program.board))
    src, dst = Buffer(grid.nbytes), Buffer(grid.nbytes)
    with arm(FaultPlan(seed=0)):
        queue.enqueue_write_buffer(src, caller)
        assert not np.shares_memory(src.data, caller)
        queue.enqueue_kernel(program, src, dst, 6)
        out, _ = queue.enqueue_read_buffer(dst)
    assert not np.shares_memory(out, dst.data)
    assert caller.tobytes() == grid.tobytes()
    assert np.array_equal(out, reference_run(grid, program.spec, 6))


def test_plan_armed_after_a_disarmed_write_never_reaches_the_caller() -> None:
    """A DRAM SEU armed between a disarmed (adopting) write and the
    launch corrupts a copy of the source, not the caller's grid; the
    scrub re-uploads from the mirror and the result is bit-exact."""
    program = make_program()
    grid = make_grid((48, 512), "mixed", seed=5)
    caller = grid.copy()
    queue = CommandQueue(HostDevice(program.board))
    src, dst = Buffer(grid.nbytes), Buffer(grid.nbytes)
    queue.enqueue_write_buffer(src, caller)
    assert np.shares_memory(src.data, caller)
    plan = FaultPlan(seed=4, faults=(SEUFault(site="dram", at_touch=0),))
    with arm(plan) as inj:
        queue.enqueue_kernel(program, src, dst, 6)
        out, _ = queue.enqueue_read_buffer(dst)
        assert len(inj.fired) == 1
        assert any("re-uploaded" in r for r in inj.recoveries)
    assert caller.tobytes() == grid.tobytes()
    assert np.array_equal(out, reference_run(grid, program.spec, 6))


def test_disarmed_batch_round_trip_makes_no_crc(monkeypatch) -> None:
    program, grids, slab = _batch_setup()
    calls = _count_host_crcs(monkeypatch)
    queue = CommandQueue()
    src, dst = Buffer(slab.nbytes), Buffer(slab.nbytes)
    queue.enqueue_write_buffer(src, slab)
    _, batch = queue.enqueue_batch_kernel(program, src, dst, 4, len(grids))
    out, _ = queue.enqueue_read_buffer(dst)
    assert calls == []
    for g, grid in enumerate(grids):
        assert np.array_equal(out[g], reference_run(grid, program.spec, 4))
        assert np.shares_memory(batch.outputs[g], dst.data)


@pytest.mark.parametrize("armed", [False, True])
def test_writing_a_grid_sequence_stacks_one_unaliased_slab(armed) -> None:
    """The scheduler hands the queue its grids, not a stacked slab: the
    write is the one copy that stacks them, aliasing none of them."""
    program, grids, slab = _batch_setup()
    callers = [g.copy() for g in grids]
    queue = CommandQueue()
    src, dst = Buffer(slab.nbytes), Buffer(slab.nbytes)
    with arm(FaultPlan(seed=0)) if armed else contextlib.nullcontext():
        queue.enqueue_write_buffer(src, tuple(callers))
        _, batch = queue.enqueue_batch_kernel(program, src, dst, 4, len(grids))
    assert batch.ok
    assert src.data.shape == slab.shape and np.array_equal(src.data, slab)
    for caller in callers:
        assert not np.shares_memory(caller, src.data)
        caller[:] = -1.0
    assert np.array_equal(src.data, slab)
    for g, grid in enumerate(grids):
        assert np.array_equal(dst.data[g], reference_run(grid, program.spec, 4))


def test_failed_kernel_leaves_destination_untouched() -> None:
    program = make_program()
    grid = make_grid((48, 512), "mixed", seed=3)
    queue = CommandQueue(HostDevice(program.board), RetryPolicy(max_retries=0))
    src, dst = Buffer(grid.nbytes), Buffer(grid.nbytes)
    queue.enqueue_write_buffer(src, grid)
    queue.enqueue_write_buffer(dst, grid + 1.0)
    before = dst.data
    plan = FaultPlan(seed=1, faults=(SEUFault(site="block-buffer", at_touch=2),))
    with arm(plan), pytest.raises(FaultDetectedError):
        queue.enqueue_kernel(program, src, dst, 6)
    assert dst.data is before and dst.verify()


# -- the simulated clock does not see the wall-clock saving ------------------ #


def _scheduled_queue_trace(armed: bool):
    spec = StencilSpec.star(2, 1)
    cfg = BlockingConfig(dims=2, radius=1, bsize_x=32, parvec=4, partime=2)
    grids = tuple(make_grid((12, 20), "mixed", seed=70 + i) for i in range(3))
    sched = StencilScheduler(devices=1)
    try:
        with arm(FaultPlan(seed=0)) if armed else contextlib.nullcontext():
            single = sched.execute_job(
                StencilJob("one", spec, cfg, grids[:1], iterations=5)
            )
            batch = sched.execute_batch(
                StencilJob("many", spec, cfg, grids, iterations=5)
            )
        assert single.status == "completed" and batch.status == "completed"
        queue = sched.workers[0].queue
        events = [(e.name, e.start_s, e.end_s) for e in queue.events]
        return events, queue.transfer_bytes, queue.clock_s
    finally:
        sched.close()


def test_disarmed_and_armed_empty_runs_share_the_simulated_clock() -> None:
    """Skipping CRCs and copies saves wall time only: the event log, the
    byte count and the clock are identical disarmed and armed-empty."""
    disarmed = _scheduled_queue_trace(armed=False)
    armed = _scheduled_queue_trace(armed=True)
    assert disarmed[0] and [e[0] for e in disarmed[0]].count("write-buffer") == 2
    assert disarmed == armed
