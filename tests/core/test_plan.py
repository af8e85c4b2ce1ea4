"""Tests for the cached pass-plan engine (repro.core.plan)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import BlockingConfig, FPGAAccelerator, StencilSpec, make_grid
from repro.core.accelerator import _aligned_f32
from repro.core.plan import (
    PassPlan,
    Segment,
    _segments_of,
    get_pass_plan,
)


def cfg2d(**kw):
    base = dict(dims=2, radius=2, bsize_x=32, parvec=4, partime=2)
    base.update(kw)
    return BlockingConfig(**base)


def cfg3d(**kw):
    base = dict(
        dims=3, radius=1, bsize_x=24, bsize_y=16, parvec=4, partime=2
    )
    base.update(kw)
    return BlockingConfig(**base)


# --------------------------------------------------------------------- #
# segment decomposition
# --------------------------------------------------------------------- #


def test_segments_of_clamped_index_array() -> None:
    idx = np.array([0, 0, 0, 0, 1, 2, 3, 4, 4, 4])
    segs = _segments_of(idx)
    assert segs == (
        Segment(0, 4, 0, 1),  # clamp-duplicate broadcast run
        Segment(4, 8, 1, 5),  # contiguous ascending run
        Segment(8, 10, 4, 5),  # clamp-duplicate broadcast run
    )


def test_segments_of_wrapped_index_array() -> None:
    idx = np.array([6, 7, 0, 1, 2, 3, 7, 0])
    segs = _segments_of(idx)
    assert segs == (
        Segment(0, 2, 6, 8),
        Segment(2, 6, 0, 4),
        Segment(6, 7, 7, 8),
        Segment(7, 8, 0, 1),
    )


def test_segments_of_extent_one() -> None:
    """Degenerate grid extent of 1: a single constant run."""
    assert _segments_of(np.zeros(7, dtype=int)) == (Segment(0, 7, 0, 1),)


@pytest.mark.parametrize("boundary", ["clamp", "periodic"])
def test_gather_into_matches_fancy_indexing(boundary: str) -> None:
    """Segment slice copies reproduce the fancy-indexed gather exactly."""
    cfg = cfg3d()
    plan = get_pass_plan(cfg, (5, 30, 41), boundary)
    src = make_grid((5, 30, 41), "random", seed=3)
    for bp in plan.blocks:
        iy, ix = bp.index_arrays
        expected = src[:, iy[:, None], ix[None, :]]
        dst = np.empty(bp.footprint, dtype=np.float32)
        bp.gather_into(src, dst)
        assert np.array_equal(dst, expected)


# --------------------------------------------------------------------- #
# plan caching
# --------------------------------------------------------------------- #


def test_get_pass_plan_is_cached() -> None:
    cfg = cfg2d()
    a = get_pass_plan(cfg, (10, 64), "clamp")
    b = get_pass_plan(cfg, (10, 64), "clamp")
    assert a is b
    # different boundary / shape / config -> different plan
    assert get_pass_plan(cfg, (10, 64), "periodic") is not a
    assert get_pass_plan(cfg, (11, 64), "clamp") is not a
    assert get_pass_plan(cfg2d(partime=1), (10, 64), "clamp") is not a


def test_plan_blocks_cover_grid_disjointly() -> None:
    """Write slices tile the grid: every cell written exactly once."""
    for boundary in ("clamp", "periodic"):
        plan = get_pass_plan(cfg3d(), (4, 33, 50), boundary)
        cover = np.zeros((4, 33, 50), dtype=int)
        for bp in plan.blocks:
            cover[bp.write_sl] += 1
        assert (cover == 1).all()


def test_plan_periodic_has_no_duplicates() -> None:
    plan = get_pass_plan(cfg2d(), (8, 40), "periodic")
    for bp in plan.blocks:
        assert bp.dup_lo == (0,) and bp.dup_hi == (0,)


def test_plan_clamp_edge_blocks_have_duplicates() -> None:
    cfg = cfg2d()  # halo 4
    plan = get_pass_plan(cfg, (8, 48), "clamp")  # csize 24 -> 2 blocks
    first, last = plan.blocks[0], plan.blocks[-1]
    assert first.dup_lo == (cfg.halo,)
    assert last.dup_hi[0] > 0


def test_plan_partial_last_block_footprint() -> None:
    cfg = cfg2d()  # csize 24
    plan = get_pass_plan(cfg, (8, 30), "clamp")  # 30 = 24 + 6
    assert len(plan.blocks) == 2
    partial = plan.blocks[-1]
    assert partial.footprint == (8, 6 + 2 * cfg.halo)
    assert plan.max_footprint == (8, 24 + 2 * cfg.halo)


# --------------------------------------------------------------------- #
# window shrink schedule
# --------------------------------------------------------------------- #


def test_windows_shrink_by_radius_per_stage_interior() -> None:
    cfg = cfg2d(bsize_x=48, radius=2, partime=3)  # halo 6, csize 36
    plan = get_pass_plan(cfg, (8, 108), "clamp")  # 3 blocks
    windows = plan.windows(3)
    middle = windows[1]  # interior block: no border pinning
    halo = cfg.halo
    for s, window in enumerate(middle, start=1):
        remaining = (3 - s) * cfg.radius
        lo, hi = window[1]
        assert lo == halo - remaining
        assert hi == 36 + halo + remaining
    # streamed axis always spans the full extent
    assert all(w[0] == (0, 8) for w in middle)


def test_windows_pin_to_border_under_clamp() -> None:
    cfg = cfg2d(bsize_x=48, radius=2, partime=3)
    plan = get_pass_plan(cfg, (8, 108), "clamp")
    first = plan.windows(3)[0]
    # at the global low border the window pins to local index = halo
    # (global 0) minus nothing: clamp makes border cells computable
    for window in first:
        lo, _ = window[1]
        assert lo == cfg.halo  # local coordinate of global x=0


def test_windows_shrink_both_sides_under_periodic() -> None:
    cfg = cfg2d(bsize_x=48, radius=2, partime=3)
    plan = get_pass_plan(cfg, (8, 108), "periodic")
    first = plan.windows(3)[0]
    halo = cfg.halo
    for s, window in enumerate(first, start=1):
        remaining = (3 - s) * cfg.radius
        assert window[1] == (halo - remaining, 36 + halo + remaining)


def test_windows_cached_per_steps() -> None:
    plan = get_pass_plan(cfg2d(), (8, 48), "clamp")
    assert plan.windows(2) is plan.windows(2)
    assert plan.windows(1) is not plan.windows(2)


# --------------------------------------------------------------------- #
# accounting totals
# --------------------------------------------------------------------- #


def test_plan_per_pass_totals_match_decomposition() -> None:
    cfg = cfg3d()
    plan = PassPlan(cfg, (4, 33, 50))
    assert plan.cells_written_per_pass == 4 * 33 * 50
    assert plan.cells_processed_per_pass == (
        plan.decomp.cells_processed_per_pass()
    )
    assert plan.vector_ops_per_pass == -(
        -plan.cells_processed_per_pass // cfg.parvec
    )


def test_accelerator_uses_cached_plan() -> None:
    """Two runs with the same geometry share one plan object."""
    spec = StencilSpec.star(2, 2)
    cfg = cfg2d()
    grid = make_grid((10, 64), "random", seed=1)
    acc = FPGAAccelerator(spec, cfg)
    acc.run(grid, 2)
    plan_a = get_pass_plan(cfg, grid.shape, "clamp")
    acc.run(grid, 4)
    assert get_pass_plan(cfg, grid.shape, "clamp") is plan_a


@pytest.mark.parametrize("vec", [1, 2, 8, 16])
def test_every_worker_scratch_base_is_64_byte_aligned(vec: int) -> None:
    """Worker ``w`` ping-pongs between ``scratch + (2w + {0, 1}) *
    scratch_floats``; a 29-float-wide footprint makes the unrounded
    capacity odd, so only the table-build roundup keeps those bases on
    cache lines at every vector width."""
    plan = get_pass_plan(cfg2d(parvec=16), (13, 21))
    tables = plan.to_driver_tables(2, vec)
    workers = 3
    scratch = _aligned_f32(workers * 2 * tables.scratch_floats)
    for w in range(workers):
        for half in (0, 1):
            offset = (2 * w + half) * tables.scratch_floats * 4
            assert (scratch.ctypes.data + offset) % 64 == 0, (w, half)
