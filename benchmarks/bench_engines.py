"""Raw throughput of the numerical engines (cells updated per second).

These measure the Python substrate itself — useful for sizing how large
a grid the functional validation can afford — and record an
``mcells_per_s`` metric alongside the timing.
"""

from __future__ import annotations

from repro.core import BlockingConfig, FPGAAccelerator, StencilSpec, make_grid
from repro.core.reference import reference_step
from repro.fpga import NALLATECH_385A
from repro.fpga.cycle_sim import CycleSimulator

SPEC_2D = StencilSpec.star(2, 2)
SPEC_3D = StencilSpec.star(3, 2)
GRID_2D = make_grid((768, 1024), "random", seed=0)
GRID_3D = make_grid((48, 128, 160), "random", seed=0)


def _record_rate(benchmark, cells: int, steps: int = 1) -> None:
    benchmark.extra_info["mcells_per_s"] = round(
        cells * steps / benchmark.stats["mean"] / 1e6, 1
    )


def test_reference_engine_2d(benchmark) -> None:
    out = benchmark(reference_step, GRID_2D, SPEC_2D)
    assert out.shape == GRID_2D.shape
    _record_rate(benchmark, GRID_2D.size)


def test_reference_engine_3d(benchmark) -> None:
    out = benchmark(reference_step, GRID_3D, SPEC_3D)
    assert out.shape == GRID_3D.shape
    _record_rate(benchmark, GRID_3D.size)


def test_accelerator_sim_2d(benchmark) -> None:
    cfg = BlockingConfig(dims=2, radius=2, bsize_x=512, parvec=4, partime=4)
    acc = FPGAAccelerator(SPEC_2D, cfg)
    out, stats = benchmark(acc.run, GRID_2D, 4)
    assert stats.passes == 1
    _record_rate(benchmark, GRID_2D.size, steps=4)


def test_accelerator_sim_3d(benchmark) -> None:
    cfg = BlockingConfig(
        dims=3, radius=2, bsize_x=96, bsize_y=64, parvec=4, partime=2
    )
    acc = FPGAAccelerator(SPEC_3D, cfg)
    out, stats = benchmark(acc.run, GRID_3D, 2)
    assert stats.passes == 1
    _record_rate(benchmark, GRID_3D.size, steps=2)


# The ISSUE's motivating case: high-order 3D (radius 4), many iterations.
SPEC_3D_R4 = StencilSpec.star(3, 4)
CFG_3D_R4 = BlockingConfig(
    dims=3, radius=4, bsize_x=96, bsize_y=64, parvec=4, partime=2
)
GRID_3D_R4 = make_grid((96, 192, 192), "random", seed=0)
ITERS_3D_R4 = 16


def test_accelerator_sim_3d_radius4(benchmark) -> None:
    """Default (auto) engine on the hot-path headline case."""
    acc = FPGAAccelerator(SPEC_3D_R4, CFG_3D_R4)
    out, stats = benchmark.pedantic(
        acc.run, args=(GRID_3D_R4, ITERS_3D_R4), rounds=3, iterations=1
    )
    assert stats.passes == 8
    _record_rate(benchmark, GRID_3D_R4.size, steps=ITERS_3D_R4)


def test_accelerator_sim_3d_radius4_numpy_engine(benchmark) -> None:
    """Pure-NumPy fallback engine (what runs without a C compiler)."""
    acc = FPGAAccelerator(SPEC_3D_R4, CFG_3D_R4, engine="numpy")
    out, _ = benchmark.pedantic(
        acc.run, args=(GRID_3D_R4, ITERS_3D_R4), rounds=3, iterations=1
    )
    _record_rate(benchmark, GRID_3D_R4.size, steps=ITERS_3D_R4)


def test_accelerator_sim_3d_radius4_workers(benchmark) -> None:
    """Block-parallel schedule (threads; deterministic write-back)."""
    acc = FPGAAccelerator(SPEC_3D_R4, CFG_3D_R4, workers=4)
    out, _ = benchmark.pedantic(
        acc.run, args=(GRID_3D_R4, ITERS_3D_R4), rounds=3, iterations=1
    )
    _record_rate(benchmark, GRID_3D_R4.size, steps=ITERS_3D_R4)


def test_cycle_sim_block(benchmark) -> None:
    spec = StencilSpec.star(3, 1)
    cfg = BlockingConfig(
        dims=3, radius=1, bsize_x=64, bsize_y=32, parvec=16, partime=4
    )
    sim = CycleSimulator(spec, cfg, NALLATECH_385A, fmax_mhz=286.61)
    rep = benchmark(sim.run_block, 5000)
    assert 0.5 < rep.efficiency < 0.75

