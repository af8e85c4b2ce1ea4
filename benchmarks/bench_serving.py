"""Serving-layer overhead: StencilService vs bare StencilScheduler.

The serving layer adds admission control, fair queueing, wall-clock
deadlines and a dispatch thread in front of the scheduler.  For a
single uncontended job all of that must be noise: the gate asserts
<= 5% wall-clock overhead for *constructing a service and running one
job through it* versus constructing a scheduler and running the same
job directly.  The workload is sized to ~100 ms on the NumPy engine so
thread handoff (~1 ms) cannot dominate, and both sides are measured as
a min-of-3 to shave scheduler noise.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core import BlockingConfig, StencilSpec, make_grid
from repro.runtime import StencilJob, StencilScheduler, StencilService

SPEC = StencilSpec.star(2, 1)
CONFIG = BlockingConfig(dims=2, radius=1, bsize_x=256, parvec=4, partime=2)
GRID = make_grid((128, 512), "mixed", seed=1)
ITERS = 400
REPEATS = 3
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


def _best_of(fn, label: str) -> tuple[float, np.ndarray]:
    best, out = float("inf"), None
    for i in range(REPEATS):
        start = time.perf_counter()
        out = fn(f"{label}-{i}")
        best = min(best, time.perf_counter() - start)
    return best, out


def test_service_overhead_is_bounded() -> None:
    """End-to-end: service construction + one job within 5% of direct."""
    direct_s, direct_out = _best_of(_scheduler_once, "sched")
    service_s, service_out = _best_of(_service_once, "svc")
    assert np.array_equal(direct_out, service_out)  # same bits either path
    overhead = service_s / direct_s - 1.0
    assert overhead <= OVERHEAD_BUDGET, (
        f"serving layer overhead {overhead:.1%} exceeds "
        f"{OVERHEAD_BUDGET:.0%} (direct {direct_s * 1e3:.1f} ms, "
        f"service {service_s * 1e3:.1f} ms)"
    )


def test_service_path_benchmark(benchmark) -> None:
    """pytest-benchmark timing of the full service round trip."""
    out = benchmark(lambda: _service_once("bench"))
    assert out.shape == GRID.shape
    benchmark.extra_info["mcells_per_s"] = round(
        GRID.size * ITERS / benchmark.stats["mean"] / 1e6, 1
    )
