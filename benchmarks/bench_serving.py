"""Serving-layer overhead: StencilService vs bare StencilScheduler.

The serving layer adds admission control, fair queueing, wall-clock
deadlines and a dispatch thread in front of the scheduler.  For a
single uncontended job all of that must be noise: the gate asserts
<= 5% wall-clock overhead for *constructing a service and running one
job through it* versus constructing a scheduler and running the same
job directly.  The workload is sized to ~100 ms on the NumPy engine so
thread handoff (~1 ms) cannot dominate.  The two paths run interleaved,
one of each per round with the order alternating, and the gate reads the
median over rounds of their ratio: the same paired statistic as the
autotune gate, so drift on a shared host cancels out of the comparison.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from repro.core import BlockingConfig, StencilSpec, make_grid
from repro.runtime import StencilJob, StencilScheduler, StencilService

SPEC = StencilSpec.star(2, 1)
CONFIG = BlockingConfig(dims=2, radius=1, bsize_x=256, parvec=4, partime=2)
GRID = make_grid((128, 512), "mixed", seed=1)
ITERS = 400
ROUNDS = 31
OVERHEAD_BUDGET = 0.05


def _scheduler_once(tag: str) -> np.ndarray:
    sched = StencilScheduler(devices=1, engine="numpy")
    result = sched.execute_job(
        StencilJob(
            job_id=f"direct-{tag}",
            spec=SPEC,
            config=CONFIG,
            grids=(GRID,),
            iterations=ITERS,
        )
    )
    sched.close()
    assert result.status == "completed"
    return result.result


def _service_once(tag: str) -> np.ndarray:
    svc = StencilService(StencilScheduler(devices=1, engine="numpy"))
    ticket = svc.submit("bench", SPEC, CONFIG, GRID, iterations=ITERS)
    result = ticket.result(timeout=120.0)
    svc.close()
    assert result.status == "completed", result.error
    return result.result


def interleaved_times(paths, rounds: int) -> tuple[dict, dict]:
    """Per-round seconds per path, and each path's last output.

    ``paths`` maps label -> callable(tag) returning the result grid.  One
    warm-up call per path, then each round runs every path once, back to
    back, alternating which goes first.
    """
    for label, fn in paths.items():
        fn(f"{label}-warm")
    times: dict = {label: [] for label in paths}
    outputs: dict = {}
    labels = list(paths)
    for i in range(rounds):
        for label in labels if i % 2 == 0 else labels[::-1]:
            start = time.perf_counter()
            outputs[label] = paths[label](f"{label}-{i}")
            times[label].append(time.perf_counter() - start)
    return times, outputs


def paired_overhead(service, direct) -> float:
    """Median over rounds of ``service / direct`` time, minus one."""
    return statistics.median(s / d for s, d in zip(service, direct)) - 1.0


def overhead_failure(times: dict) -> str | None:
    """The gate: a message if the service path's paired overhead over the
    direct path exceeds the budget, else None."""
    overhead = paired_overhead(times["service"], times["direct"])
    if overhead <= OVERHEAD_BUDGET:
        return None
    return (
        f"serving layer overhead {overhead:.1%} (paired median of "
        f"{len(times['service'])}) exceeds {OVERHEAD_BUDGET:.0%} (direct best "
        f"{min(times['direct']) * 1e3:.1f} ms, service best "
        f"{min(times['service']) * 1e3:.1f} ms)"
    )


def test_service_overhead_is_bounded() -> None:
    """End-to-end: service construction + one job within 5% of direct."""
    times, outputs = interleaved_times(
        {"direct": _scheduler_once, "service": _service_once}, ROUNDS
    )
    assert np.array_equal(outputs["direct"], outputs["service"])  # same bits
    failure = overhead_failure(times)
    assert failure is None, failure


def test_service_path_benchmark(benchmark) -> None:
    """pytest-benchmark timing of the full service round trip."""
    out = benchmark(lambda: _service_once("bench"))
    assert out.shape == GRID.shape
    benchmark.extra_info["mcells_per_s"] = round(
        GRID.size * ITERS / benchmark.stats["mean"] / 1e6, 1
    )
