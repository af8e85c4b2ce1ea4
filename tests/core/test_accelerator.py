"""Tests for the FPGA accelerator functional simulator.

The headline invariant: the simulator is **bit-identical** to the golden
reference for every configuration, because both use the paper's fixed
floating-point accumulation order and clamp boundary semantics.
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


def build(dims: int, radius: int, *, bsize=48, parvec=4, partime=2):
    spec = StencilSpec.star(dims, radius)
    kwargs = dict(
        dims=dims, radius=radius, bsize_x=bsize, parvec=parvec, partime=partime
    )
    if dims == 3:
        kwargs["bsize_y"] = bsize
    return spec, BlockingConfig(**kwargs)


@pytest.mark.parametrize("dims", [2, 3])
@pytest.mark.parametrize("radius", [1, 2, 3, 4])
def test_bit_identical_to_reference(dims: int, radius: int) -> None:
    spec, cfg = build(dims, radius, partime=2)
    shape = (21, 75) if dims == 2 else (7, 30, 41)
    grid = make_grid(shape, "mixed", seed=radius)
    iters = 4
    expected = reference_run(grid, spec, iters)
    actual, _ = FPGAAccelerator(spec, cfg).run(grid, iters)
    assert np.array_equal(expected, actual)


@pytest.mark.parametrize("iters", [0, 1, 2, 3, 5, 7])
def test_iterations_not_multiple_of_partime(iters: int) -> None:
    """The final pass runs the remaining steps only."""
    spec, cfg = build(2, 2, partime=3)
    grid = make_grid((14, 60), "random", seed=9)
    expected = reference_run(grid, spec, iters)
    actual, stats = FPGAAccelerator(spec, cfg).run(grid, iters)
    assert np.array_equal(expected, actual)
    assert stats.steps_executed == iters
    assert stats.passes == -(-iters // 3)


def test_partial_last_block() -> None:
    """Grid width not a multiple of csize: the last block is clipped."""
    spec, cfg = build(2, 1, bsize=32, partime=2)  # csize 28
    grid = make_grid((9, 70), "random", seed=4)  # 70 = 2*28 + 14
    expected = reference_run(grid, spec, 4)
    actual, stats = FPGAAccelerator(spec, cfg).run(grid, 4)
    assert np.array_equal(expected, actual)
    assert stats.blocks_per_pass == 3


def test_single_block_covers_grid() -> None:
    """bsize larger than the grid: one block, all reads clamped."""
    spec, cfg = build(2, 2, bsize=256, partime=3)
    grid = make_grid((12, 40), "random", seed=5)
    expected = reference_run(grid, spec, 3)
    actual, stats = FPGAAccelerator(spec, cfg).run(grid, 3)
    assert np.array_equal(expected, actual)
    assert stats.blocks_per_pass == 1


def test_3d_blocks_both_axes() -> None:
    spec = StencilSpec.star(3, 2)
    cfg = BlockingConfig(
        dims=3, radius=2, bsize_x=32, bsize_y=24, parvec=4, partime=2
    )  # csize (16, 24)
    grid = make_grid((6, 33, 49), "mixed", seed=6)
    expected = reference_run(grid, spec, 5)
    actual, stats = FPGAAccelerator(spec, cfg).run(grid, 5)
    assert np.array_equal(expected, actual)
    assert stats.blocks_per_pass == 3 * 3  # ceil(33/16) x ceil(49/24)


def test_stats_accounting() -> None:
    spec, cfg = build(2, 1, bsize=32, parvec=4, partime=2)  # csize 28, halo 2
    grid = make_grid((10, 56), "random")
    _, stats = FPGAAccelerator(spec, cfg).run(grid, 4)
    assert stats.passes == 2
    assert stats.cells_written == 2 * 10 * 56
    assert stats.cells_processed == 2 * 2 * 32 * 10  # 2 passes x 2 blocks x footprint
    assert stats.words_read == stats.cells_processed
    assert stats.words_written == stats.cells_written
    assert stats.bytes_transferred == 4 * (stats.words_read + stats.words_written)
    assert stats.redundancy_ratio == pytest.approx((2 * 32) / 56)
    assert stats.vector_ops == stats.cells_processed // 4
    assert stats.pe_invocations == 2 * 2 * 2  # passes x blocks x steps
    # eq. 7: 2 * rad * bsize_x + parvec
    assert stats.shift_register_words_per_pe == 2 * 1 * 32 + 4


def test_zero_iterations() -> None:
    spec, cfg = build(2, 1)
    grid = make_grid((8, 48), "random")
    out, stats = FPGAAccelerator(spec, cfg).run(grid, 0)
    assert np.array_equal(out, grid)
    assert stats.passes == 0 and stats.cells_processed == 0


def test_input_unmodified_and_new_array() -> None:
    spec, cfg = build(2, 1)
    grid = make_grid((8, 48), "random")
    before = grid.copy()
    out, _ = FPGAAccelerator(spec, cfg).run(grid, 2)
    assert np.array_equal(grid, before)
    assert out is not grid


def test_mismatched_spec_config_rejected() -> None:
    spec = StencilSpec.star(2, 1)
    cfg3 = BlockingConfig(dims=3, radius=1, bsize_x=32, bsize_y=32)
    with pytest.raises(ConfigurationError):
        FPGAAccelerator(spec, cfg3)
    cfg_rad = BlockingConfig(dims=2, radius=2, bsize_x=32)
    with pytest.raises(ConfigurationError):
        FPGAAccelerator(spec, cfg_rad)


def test_grid_dims_mismatch_rejected() -> None:
    spec, cfg = build(2, 1)
    with pytest.raises(ConfigurationError):
        FPGAAccelerator(spec, cfg).run(np.zeros((4, 4, 4), np.float32), 1)
    with pytest.raises(ConfigurationError):
        FPGAAccelerator(spec, cfg).run(np.zeros((4, 48), np.float32), -1)


def test_float64_input_coerced_to_float32() -> None:
    spec, cfg = build(2, 1)
    grid = np.random.default_rng(0).random((8, 48))  # float64
    out, _ = FPGAAccelerator(spec, cfg).run(grid, 1)
    assert out.dtype == np.float32
    expected = reference_run(grid.astype(np.float32), spec, 1)
    assert np.array_equal(out, expected)


def test_large_partime_deep_chain() -> None:
    """A deep PE chain (high temporal parallelism) stays exact."""
    spec, cfg = build(2, 1, bsize=64, parvec=1, partime=16)  # csize 32
    grid = make_grid((10, 96), "mixed", seed=11)
    expected = reference_run(grid, spec, 16)
    actual, stats = FPGAAccelerator(spec, cfg).run(grid, 16)
    assert np.array_equal(expected, actual)
    assert stats.passes == 1


def test_partial_final_pass_charges_full_pipeline() -> None:
    """steps < partime: the hardware still runs all partime PE slots
    (trailing PEs forward), so every per-pass counter charges the full
    fixed footprint while steps_executed counts real time steps."""
    spec, cfg = build(2, 2, bsize=32, parvec=4, partime=3)
    grid = make_grid((8, 48), "random", seed=13)
    _, full = FPGAAccelerator(spec, cfg).run(grid, 3)  # one full pass
    _, part = FPGAAccelerator(spec, cfg).run(grid, 4)  # full + partial

    assert part.passes == 2 and part.steps_executed == 4
    blocks = full.blocks_per_pass
    # pe_invocations charge partime slots per block on EVERY pass
    assert full.pe_invocations == blocks * 3
    assert part.pe_invocations == 2 * blocks * 3
    # the other counters scale with passes the same way
    assert part.cells_processed == 2 * full.cells_processed
    assert part.vector_ops == 2 * full.vector_ops
    assert part.words_read == 2 * full.words_read
    # and the numerics still match the reference for the odd iteration
    expected = reference_run(grid, spec, 4)
    actual, _ = FPGAAccelerator(spec, cfg).run(grid, 4)
    assert np.array_equal(expected, actual)


@pytest.mark.parametrize("boundary", ["clamp", "periodic"])
def test_partial_blocks_odd_iterations_bit_exact(boundary: str) -> None:
    """The ISSUE's pinned edge-class: partial last blocks AND
    iterations % partime != 0, under both boundaries."""
    spec = StencilSpec.star(2, 2)
    cfg = BlockingConfig(dims=2, radius=2, bsize_x=32, parvec=4, partime=3)
    grid = make_grid((9, 70), "mixed", seed=21)  # csize 20 -> partial block
    expected = reference_run(grid, spec, 7, boundary=boundary)  # 7 % 3 != 0
    actual, stats = FPGAAccelerator(spec, cfg, boundary=boundary).run(grid, 7)
    assert np.array_equal(expected, actual)
    assert stats.passes == 3


def test_workers_bit_identical_and_validated() -> None:
    spec, cfg = build(2, 2, bsize=32, partime=2)
    grid = make_grid((10, 100), "mixed", seed=8)
    serial, _ = FPGAAccelerator(spec, cfg).run(grid, 5)
    threaded, _ = FPGAAccelerator(spec, cfg, workers=3).run(grid, 5)
    assert np.array_equal(serial, threaded)
    with pytest.raises(ConfigurationError):
        FPGAAccelerator(spec, cfg, workers=0)
