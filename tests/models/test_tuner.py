"""Tests for the design-space tuner (paper §V.A)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import BlockingConfig, StencilSpec
from repro.core.plan import PassPlan
from repro.errors import ConfigurationError
from repro.fpga import NALLATECH_385A
from repro.models import Tuner
from repro.models.area import par_total
from repro.models.tuner import claim_makespan, pool_load, unit_stage_cells

SHAPE_2D = (16000, 16000)
SHAPE_3D = (700, 700, 700)

# The paper's chosen (parvec, partime) per (dims, rad) — Table III.
PAPER_CONFIGS = {
    (2, 1): (8, 36),
    (2, 2): (4, 42),
    (2, 3): (4, 28),
    (2, 4): (4, 22),
    (3, 1): (16, 12),
    (3, 2): (16, 6),
    (3, 3): (16, 4),
    (3, 4): (16, 3),
}


@pytest.mark.parametrize(("dims", "radius"), sorted(PAPER_CONFIGS))
def test_paper_config_in_top2(dims: int, radius: int) -> None:
    """The paper place-and-routes the model's top few (usually two)
    candidates; its final config must appear among our tuner's top two."""
    spec = StencilSpec.star(dims, radius)
    tuner = Tuner(spec, NALLATECH_385A)
    shape = SHAPE_2D if dims == 2 else SHAPE_3D
    top = tuner.tune(shape, 1000, top_k=2)
    found = {(d.config.parvec, d.config.partime) for d in top}
    assert PAPER_CONFIGS[(dims, radius)] in found


def test_all_candidates_satisfy_constraints() -> None:
    """Eqs. 5-6 and even parvec hold for every enumerated candidate."""
    spec = StencilSpec.star(3, 2)
    tuner = Tuner(spec, NALLATECH_385A)
    limit = par_total(NALLATECH_385A.device, spec)
    configs = tuner.enumerate_configs()
    assert configs
    for cfg in configs:
        assert cfg.parvec % 2 == 0
        assert (cfg.partime * cfg.radius) % 4 == 0
        assert cfg.partime * cfg.parvec <= limit
        assert all(c >= 1 for c in cfg.csize)


def test_high_order_3d_selects_reduced_bsize_y() -> None:
    """§VI.A: BRAM pressure forces bsize from 256x256 to 256x128 for
    second-order-and-up 3D stencils."""
    best_r1 = Tuner(StencilSpec.star(3, 1), NALLATECH_385A).best(SHAPE_3D, 1000)
    assert best_r1.config.bsize_y == 256
    for rad in (2, 3, 4):
        best = Tuner(StencilSpec.star(3, rad), NALLATECH_385A).best(SHAPE_3D, 1000)
        assert best.config.bsize_y == 128


def test_designs_fit_device() -> None:
    for dims, radius in sorted(PAPER_CONFIGS):
        spec = StencilSpec.star(dims, radius)
        shape = SHAPE_2D if dims == 2 else SHAPE_3D
        for design in Tuner(spec, NALLATECH_385A).tune(shape, 1000, top_k=3):
            assert design.area.fits


def test_ranked_by_predicted_time() -> None:
    spec = StencilSpec.star(2, 2)
    designs = Tuner(spec, NALLATECH_385A).tune(SHAPE_2D, 1000, top_k=5)
    times = [d.estimate.time_s for d in designs]
    assert times == sorted(times)


def test_gcell_drops_with_radius_gflops_flat() -> None:
    """The §V.A/§VI.A trend through the tuner's best designs (2D):
    GCell/s falls ~proportional to radius; GFLOP/s stays within a band."""
    results = {
        rad: Tuner(StencilSpec.star(2, rad), NALLATECH_385A).best(SHAPE_2D, 1000)
        for rad in (1, 2, 4)
    }
    g1 = results[1].estimate
    for rad in (2, 4):
        est = results[rad].estimate
        assert est.gcell_s < g1.gcell_s / (0.7 * rad)
        assert est.gflop_s > 0.7 * g1.gflop_s


def test_custom_bsize_menu() -> None:
    spec = StencilSpec.star(2, 1)
    tuner = Tuner(spec, NALLATECH_385A, bsizes=(1024,))
    assert all(c.bsize_x == 1024 for c in tuner.enumerate_configs())


def test_infeasible_space_raises() -> None:
    spec = StencilSpec.star(2, 1)
    tuner = Tuner(spec, NALLATECH_385A, bsizes=(8,))  # too small for any halo
    with pytest.raises(ConfigurationError):
        tuner.tune(SHAPE_2D, 1000)
    with pytest.raises(ConfigurationError):
        Tuner(spec, NALLATECH_385A).tune(SHAPE_2D, 1000, top_k=0)


# -- the shortlist's driver-pool model --------------------------------------- #

BULK_3D = (48, 128, 128)


def _worker_loads(cells: list[int], workers: int) -> list[int]:
    """Per-worker cells when each unit goes to the least-loaded worker."""
    loads = [0] * workers
    for c in cells:
        loads[loads.index(min(loads))] += c
    return loads


@pytest.mark.parametrize("boundary", ["clamp", "periodic"])
@pytest.mark.parametrize("radius", [1, 2, 4])
@pytest.mark.parametrize("dims", [2, 3])
def test_unit_cells_match_the_driver_windows(dims, radius, boundary) -> None:
    """The analytical per-unit stage cells equal what the driver's tables
    say each block computes, on full and tail passes alike."""
    partime = 3
    halo2 = 2 * partime * radius
    config = BlockingConfig(
        dims=dims,
        radius=radius,
        bsize_x=-(-(halo2 + 9) // 4) * 4,
        bsize_y=halo2 + 7 if dims == 3 else None,
        parvec=4,
        partime=partime,
    )
    # extents that leave a short last block on every blocked axis
    shape = (7, 53) if dims == 2 else (5, 29, 37)
    plan = PassPlan(config, shape, boundary)
    assert len(plan.blocks) > 2
    for steps in (partime, 2, 1):
        windows = plan.to_driver_tables(steps, 4).windows
        driver = np.prod(windows[..., 1] - windows[..., 0], axis=-1).sum(axis=1)
        model = unit_stage_cells(config, shape, boundary, steps)
        assert model.tolist() == driver.tolist()


def test_pool_load_counts_full_and_tail_passes() -> None:
    config = BlockingConfig(
        dims=3, radius=4, bsize_x=256, bsize_y=128, parvec=16, partime=3
    )
    full = unit_stage_cells(config, BULK_3D, "clamp", 3).tolist()
    tail = unit_stage_cells(config, BULK_3D, "clamp", 2).tolist()
    imbalance, makespan = pool_load(config, BULK_3D, 8, workers=2)
    assert makespan == 2 * claim_makespan(full, 2) + claim_makespan(tail, 2)
    assert imbalance == pytest.approx(2 * makespan / (2 * sum(full) + sum(tail)))
    # one worker does it all: the imbalance is exactly 1
    assert pool_load(config, BULK_3D, 8, workers=1) == (
        1.0, 2 * sum(full) + sum(tail)
    )


def test_bulk_3d_shortlist_splits_evenly_across_two_workers() -> None:
    """48x128x128 r4: the FPGA model's pick tiles y as 104 + 24 rows and
    leaves one of two workers with ~79% of every pass; the pool-ranked
    shortlist leads with a tiling whose units split within 10%."""
    spec = StencilSpec.star(3, 4)
    tuner = Tuner(spec, NALLATECH_385A)
    served = BlockingConfig(
        dims=3, radius=4, bsize_x=256, bsize_y=128, parvec=16, partime=3
    )
    assert pool_load(served, BULK_3D, 8, workers=2)[0] > 1.5
    top = tuner.shortlist(BULK_3D, 8, k=3, workers=2)[0]
    assert top.area.fits
    assert top.imbalance <= 1.1
    for steps in {top.config.partime, 8 % top.config.partime} - {0}:
        cells = unit_stage_cells(top.config, BULK_3D, "clamp", steps).tolist()
        loads = _worker_loads(cells, 2)
        assert max(loads) <= 1.1 * min(loads)


def test_one_worker_ranks_by_the_fpga_key() -> None:
    tuner = Tuner(StencilSpec.star(3, 4), NALLATECH_385A)
    designs = tuner.shortlist(BULK_3D, 8, k=5, workers=1)
    for d in designs:
        assert d.imbalance == 1.0
        assert d.key == (d.estimate.time_s, d.area.m20k_fraction, d.area.dsps)
    assert [d.key for d in designs] == sorted(d.key for d in designs)


def test_shortlist_offers_equal_splits_for_the_pool() -> None:
    """Per partime, block sizes that split an axis into W or 2W equal
    compute extents are on the menu (the paper's menu and its halves and
    quarters never are, for 128 rows at radius 4)."""
    spec = StencilSpec.star(3, 4)
    tuner = Tuner(spec, NALLATECH_385A)
    configs = tuner._shortlist_configs([128, 128], 2)
    # eq. 5 still bounds the wider menu: (256,96)/pv16/pt4 would split y
    # evenly but needs 64 > par_total = 60 parallel updates
    limit = par_total(NALLATECH_385A.device, spec)
    assert all(c.parvec * c.partime <= limit for c in configs)
    assert not any(c.parvec == 16 and c.partime == 4 for c in configs)
    for partime in (2, 3):
        halo2 = 2 * partime * 4
        ys = {c.bsize_y for c in configs
              if c.partime == partime and c.bsize_x == 256 and c.parvec == 16}
        assert {64 + halo2, 32 + halo2} <= ys


def _geometry(config: BlockingConfig, shape) -> tuple:
    """The pass plan a design compiles to: vector width, partime, blocks."""
    blocks = PassPlan(config, shape).blocks
    return (
        config.parvec,
        config.partime,
        tuple((bp.block, bp.footprint) for bp in blocks),
    )


def test_shortlist_gives_one_slot_per_plan() -> None:
    """16x64x64 r4 on one worker: the FPGA key's four best designs all
    decompose the grid into one plan (block sizes 120 and 128 both cover
    64 columns at partime 7); the shortlist measures three plans."""
    spec = StencilSpec.star(3, 4)
    shape = (16, 64, 64)
    tuner = Tuner(spec, NALLATECH_385A)
    ranked = tuner._feasible(tuner._shortlist_configs([64, 64], 1), shape, 4)
    assert len({_geometry(d.config, shape) for d in ranked[:4]}) == 1  # premise
    designs = tuner.shortlist(shape, 4, k=3, workers=1)
    assert len({_geometry(d.config, shape) for d in designs}) == 3
    assert designs[0].config == ranked[0].config
