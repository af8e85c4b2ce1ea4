"""Overhead of the fault-injection hooks on the fault-free path.

The hook sites (shift registers, channels, the command queue) check a
single module-level global when no plan is armed; the target is < 3%
overhead for the disarmed path versus the same workload measured before
the hooks existed.  We approximate that baseline with the armed-empty
path: arming an empty :class:`FaultPlan` switches on all the bookkeeping
(per-block CRCs, channel transport, DRAM scrubs) that the disarmed path
skips, so the *gap* between the two runs is the machinery the hooks
guard — and the disarmed timing is asserted well below it.

The same pair is measured on the host layer: a ``CommandQueue`` write
-> kernel -> read round trip, which disarmed adopts the caller's grid
as the source buffer, writes the kernel's last pass straight into the
device buffer's new storage and hands that storage back, with no copy
and no CRC; armed-empty it copies and CRCs every transfer and scrubs
the source buffer.
"""

from __future__ import annotations

import numpy as np

from repro.core import BlockingConfig, FPGAAccelerator, StencilSpec, make_grid
from repro.faults import FaultPlan, arm
from repro.runtime.checkpoint import CheckpointPolicy
from repro.runtime.host import Buffer, CommandQueue, StencilProgram

SPEC = StencilSpec.star(2, 2)
CONFIG = BlockingConfig(dims=2, radius=2, bsize_x=512, parvec=4, partime=4)
GRID = make_grid((768, 1024), "random", seed=0)
ITERS = 4


def _run_disarmed() -> np.ndarray:
    out, _ = FPGAAccelerator(SPEC, CONFIG).run(GRID, ITERS)
    return out


def _run_armed_empty() -> np.ndarray:
    with arm(FaultPlan(seed=0)):
        out, _ = FPGAAccelerator(SPEC, CONFIG).run(GRID, ITERS)
    return out


def _best_of(fn, n=3) -> float:
    import time

    times = []
    for _ in range(n):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


PROGRAM = StencilProgram(SPEC, CONFIG)


def _host_round_trip() -> np.ndarray:
    queue = CommandQueue()
    src, dst = Buffer(GRID.nbytes), Buffer(GRID.nbytes)
    queue.enqueue_write_buffer(src, GRID)
    queue.enqueue_kernel(PROGRAM, src, dst, ITERS)
    out, _ = queue.enqueue_read_buffer(dst)
    return out


def _host_round_trip_armed_empty() -> np.ndarray:
    with arm(FaultPlan(seed=0)):
        return _host_round_trip()


def test_disarmed_fault_hooks_overhead(benchmark) -> None:
    """Fault-free path with hooks compiled in but no plan armed."""
    out = benchmark(_run_disarmed)
    assert out.shape == GRID.shape
    benchmark.extra_info["mcells_per_s"] = round(
        GRID.size * ITERS / benchmark.stats["mean"] / 1e6, 1
    )


def test_armed_empty_plan_overhead(benchmark) -> None:
    """Upper bound: full checksum/transport bookkeeping, zero faults."""
    out = benchmark(_run_armed_empty)
    assert out.shape == GRID.shape
    benchmark.extra_info["mcells_per_s"] = round(
        GRID.size * ITERS / benchmark.stats["mean"] / 1e6, 1
    )


def test_disarmed_path_is_near_free() -> None:
    """Cheap sanity gate (no pytest-benchmark needed): the disarmed run
    must stay well under the armed-empty run, which carries the real
    checksum cost.  Timing is noisy in CI, so the assertion is lenient —
    it catches a regression where the disarmed path starts doing armed
    work, not single-digit-percent drift."""
    _run_disarmed()  # warm-up (allocations, caches)
    disarmed = _best_of(_run_disarmed)
    armed = _best_of(_run_armed_empty)
    assert disarmed < armed * 1.10, (
        f"disarmed path ({disarmed:.3f}s) should not cost more than the "
        f"armed-empty path ({armed:.3f}s): hooks are leaking work"
    )


def test_disarmed_host_path_is_near_free() -> None:
    """The same lenient gate on the host layer: a disarmed queue round
    trip must stay well under the armed-empty one, which CRCs every
    transfer — it catches the disarmed host path doing armed work."""
    out = _host_round_trip()  # warm-up doubles as the bit-exact check
    assert np.array_equal(out, _run_disarmed())
    disarmed = _best_of(_host_round_trip)
    armed = _best_of(_host_round_trip_armed_empty)
    assert disarmed < armed * 1.10, (
        f"disarmed host path ({disarmed:.3f}s) should not cost more than "
        f"the armed-empty one ({armed:.3f}s): the queue is leaking checks"
    )


def _run_checkpointed() -> np.ndarray:
    out, _ = FPGAAccelerator(SPEC, CONFIG).run(
        GRID, ITERS, checkpoint=CheckpointPolicy(every=1)
    )
    return out


def test_checkpoint_none_is_the_zero_overhead_path() -> None:
    """``checkpoint=None`` must stay byte-for-byte the pre-checkpoint
    loop: no snapshots, no grid copies, recovery counters untouched.
    Same lenient style as the disarmed-hooks gate — it catches the
    ``None`` path starting to do checkpoint work, not timing noise."""
    acc = FPGAAccelerator(SPEC, CONFIG)
    out, stats = acc.run(GRID, ITERS)  # warm-up doubles as the stats check
    assert stats.rollbacks == 0
    assert stats.replayed_passes == 0
    assert stats.checkpoints == 0

    plain = _best_of(_run_disarmed)
    every_pass = _best_of(_run_checkpointed)
    # every-pass snapshots copy the whole grid each pass; the None path
    # must stay clearly below that ceiling
    assert plain < every_pass * 1.10, (
        f"checkpoint=None path ({plain:.3f}s) should not cost more than "
        f"snapshot-every-pass ({every_pass:.3f}s): the disarmed hook is "
        "leaking checkpoint work"
    )
    # and checkpointed runs produce identical bits
    assert np.array_equal(out, _run_checkpointed())
