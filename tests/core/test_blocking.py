"""Tests for the blocking geometry (paper eq. 2 and overlapped halos)."""

from __future__ import annotations

import pytest

from repro.core.blocking import Block, BlockDecomposition, BlockingConfig
from repro.errors import ConfigurationError


def cfg2d(bsize_x=64, parvec=4, partime=3, radius=2) -> BlockingConfig:
    return BlockingConfig(
        dims=2, radius=radius, bsize_x=bsize_x, parvec=parvec, partime=partime
    )


def cfg3d(bsize_x=64, bsize_y=48, parvec=4, partime=2, radius=2) -> BlockingConfig:
    return BlockingConfig(
        dims=3,
        radius=radius,
        bsize_x=bsize_x,
        bsize_y=bsize_y,
        parvec=parvec,
        partime=partime,
    )


def test_csize_eq2() -> None:
    """Eq. 2: csize = bsize - 2 * partime * rad."""
    cfg = cfg2d(bsize_x=4096, partime=36, radius=1, parvec=8)
    assert cfg.csize == (4096 - 2 * 36 * 1,)
    cfg3 = cfg3d(bsize_x=256, bsize_y=256, partime=12, radius=1, parvec=16)
    assert cfg3.csize == (256 - 24, 256 - 24)


def test_paper_configs_csize() -> None:
    """The paper's Table III configs give the input sizes reported in §IV.C."""
    # 2D rad 2: bsize 4096, partime 42 -> csize 3928; 4 blocks -> 15712
    cfg = cfg2d(bsize_x=4096, partime=42, radius=2, parvec=4)
    assert cfg.csize == (3928,)
    assert 4 * 3928 == 15712
    # 3D rad 1: bsize 256x256, partime 12 -> csize 232; 3 blocks -> 696
    cfg3 = cfg3d(bsize_x=256, bsize_y=256, partime=12, radius=1, parvec=16)
    assert cfg3.csize == (232, 232)
    assert 3 * 232 == 696


def test_halo() -> None:
    assert cfg2d(partime=5, radius=3).halo == 15


def test_validation_errors() -> None:
    with pytest.raises(ConfigurationError):
        cfg2d(bsize_x=10, partime=3, radius=2)  # csize <= 0
    with pytest.raises(ConfigurationError):
        cfg2d(bsize_x=66, parvec=4)  # not multiple of parvec
    with pytest.raises(ConfigurationError):
        BlockingConfig(dims=3, radius=1, bsize_x=32, parvec=1, partime=1)  # no bsize_y
    with pytest.raises(ConfigurationError):
        BlockingConfig(
            dims=2, radius=1, bsize_x=32, parvec=1, partime=1, bsize_y=16
        )  # bsize_y in 2D
    with pytest.raises(ConfigurationError):
        cfg2d(partime=0)
    with pytest.raises(ConfigurationError):
        BlockingConfig(dims=4, radius=1, bsize_x=32)


def test_num_blocks_and_passes() -> None:
    cfg = cfg2d(bsize_x=64, partime=3, radius=2)  # csize 52
    assert cfg.num_blocks((100, 104)) == (2,)
    assert cfg.num_blocks((100, 105)) == (3,)  # partial third block
    assert cfg.passes(9) == 3
    assert cfg.passes(10) == 4
    assert cfg.passes(0) == 0
    with pytest.raises(ConfigurationError):
        cfg.passes(-1)


def test_served_passes_are_full_passes_then_the_tail() -> None:
    cfg = cfg2d(bsize_x=64, partime=3, radius=2)
    assert cfg.served_passes(9) == [(3, 3)]
    assert cfg.served_passes(10) == [(3, 3), (1, 1)]
    assert cfg.served_passes(2) == [(2, 1)]  # shorter than one full pass
    assert cfg.served_passes(0) == []
    for n in range(12):
        served = cfg.served_passes(n)
        assert sum(s * c for s, c in served) == n
        assert sum(c for _, c in served) == cfg.passes(n)
    with pytest.raises(ConfigurationError):
        cfg.served_passes(-1)


def test_aligned_input_size() -> None:
    cfg = cfg2d(bsize_x=64, partime=3, radius=2)  # csize 52
    assert cfg.aligned_input_size(100) == 104
    assert cfg.aligned_input_size(104) == 104


def test_aligned_input_size_axis_semantics() -> None:
    """Regression: in 3D ``csize`` is ordered (y, x), so a positional
    axis index of 0 silently meant the *y* axis.  The axis is now named."""
    cfg = cfg3d(bsize_x=64, bsize_y=48, partime=2, radius=2)  # csize (40, 56)
    assert cfg.aligned_input_size(100, "x") == 112  # 2 * 56
    assert cfg.aligned_input_size(100, "y") == 120  # 3 * 40
    # default stays the contiguous x axis
    assert cfg.aligned_input_size(100) == 112
    with pytest.raises(ConfigurationError):
        cfg.aligned_input_size(100, "z")  # streamed axis needs no alignment
    with pytest.raises(ConfigurationError):
        cfg2d().aligned_input_size(100, "y")  # 2D has no blocked y axis


def test_aligned_shape() -> None:
    cfg3 = cfg3d(bsize_x=64, bsize_y=48, partime=2, radius=2)  # csize (40, 56)
    assert cfg3.aligned_shape((10, 100, 100)) == (10, 120, 112)
    # already aligned -> unchanged; streamed axis never padded
    assert cfg3.aligned_shape((7, 120, 112)) == (7, 120, 112)
    cfg2 = cfg2d(bsize_x=64, partime=3, radius=2)  # csize 52
    assert cfg2.aligned_shape((9, 100)) == (9, 104)
    with pytest.raises(ConfigurationError):
        cfg2.aligned_shape((9, 100, 3))


def test_decomposition_partitions_grid_2d() -> None:
    cfg = cfg2d(bsize_x=64, partime=3, radius=2)  # csize 52
    decomp = BlockDecomposition(cfg, (40, 130))
    blocks = list(decomp)
    assert len(blocks) == 3
    # compute regions tile [0, 130) without gaps or overlap
    covered = []
    for b in blocks:
        covered.extend(range(b.starts[0], b.stops[0]))
    assert covered == list(range(130))


def test_decomposition_partitions_grid_3d() -> None:
    cfg = cfg3d(bsize_x=64, bsize_y=48, partime=2, radius=2)  # csize (40, 56)
    decomp = BlockDecomposition(cfg, (10, 80, 112))
    blocks = list(decomp)
    assert len(blocks) == 2 * 2
    cells = sum(b.compute_cells(10) for b in blocks)
    assert cells == 10 * 80 * 112


def test_cells_accounting() -> None:
    cfg = cfg2d(bsize_x=64, partime=3, radius=2)  # csize 52, halo 6
    decomp = BlockDecomposition(cfg, (40, 104))
    assert decomp.cells_written_per_pass() == 40 * 104
    # 2 blocks, each with fixed bsize footprint 64 wide
    assert decomp.cells_processed_per_pass() == 2 * 64 * 40
    assert decomp.redundancy_ratio() == pytest.approx((2 * 64) / 104)


def test_redundancy_grows_with_partime() -> None:
    """Overlapped blocking cost: larger partime -> larger halo -> more
    redundant work per pass (the fundamental trade-off of §III.A)."""
    shape = (32, 240)
    r_small = BlockDecomposition(cfg2d(bsize_x=80, partime=1), shape).redundancy_ratio()
    r_large = BlockDecomposition(cfg2d(bsize_x=80, partime=8), shape).redundancy_ratio()
    assert r_large > r_small


def test_block_compute_cells() -> None:
    b = Block((4, 8), (10, 20))
    assert b.compute_cells(stream_extent=5) == 5 * 6 * 12


def test_shape_dims_mismatch() -> None:
    with pytest.raises(ConfigurationError):
        BlockDecomposition(cfg2d(), (4, 4, 4))
    with pytest.raises(ConfigurationError):
        cfg3d().num_blocks((4, 4))
