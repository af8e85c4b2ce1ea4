"""Tests for the performance model against Table III.

The model reconstruction (DESIGN.md §6) must reproduce the paper's
Estimated and Measured performance columns within 5 %.
"""

from __future__ import annotations

import pytest

from repro.core import BlockingConfig, StencilSpec
from repro.errors import ConfigurationError
from repro.fpga import NALLATECH_385A
from repro.models import PerformanceModel

# Table III: (dims, rad) -> (parvec, partime, bsize_y, bsize_x, shape,
#                            estimated GB/s, measured GB/s, fmax MHz)
TABLE_III = {
    (2, 1): (8, 36, None, 4096, (16096, 16096), 780.500, 673.959, 343.76),
    (2, 2): (4, 42, None, 4096, (15712, 15712), 423.173, 359.752, 322.47),
    (2, 3): (4, 28, None, 4096, (15712, 15712), 264.863, 225.215, 302.75),
    (2, 4): (4, 22, None, 4096, (15680, 15680), 206.061, 174.381, 301.20),
    (3, 1): (16, 12, 256, 256, (696, 696, 696), 378.345, 230.568, 286.61),
    (3, 2): (16, 6, 128, 256, (696, 728, 696), 176.713, 97.035, 262.88),
    (3, 3): (16, 4, 128, 256, (696, 728, 696), 114.667, 63.737, 255.36),
    (3, 4): (16, 3, 128, 256, (696, 728, 696), 81.597, 44.701, 242.77),
}


def _setup(dims: int, radius: int):
    parvec, partime, bsize_y, bsize_x, shape, est, meas, fmax = TABLE_III[
        (dims, radius)
    ]
    spec = StencilSpec.star(dims, radius)
    cfg = BlockingConfig(
        dims=dims,
        radius=radius,
        bsize_x=bsize_x,
        bsize_y=bsize_y,
        parvec=parvec,
        partime=partime,
    )
    return spec, cfg, shape, est, meas, fmax


@pytest.mark.parametrize(("dims", "radius"), sorted(TABLE_III))
def test_estimated_performance_within_5pct(dims: int, radius: int) -> None:
    spec, cfg, shape, est_paper, _, fmax = _setup(dims, radius)
    model = PerformanceModel(NALLATECH_385A)
    est = model.estimate(spec, cfg, shape, 1000, fmax_mhz=fmax)
    assert est.gbs == pytest.approx(est_paper, rel=0.05)


@pytest.mark.parametrize(("dims", "radius"), sorted(TABLE_III))
def test_measured_performance_within_5pct(dims: int, radius: int) -> None:
    spec, cfg, shape, _, meas_paper, fmax = _setup(dims, radius)
    model = PerformanceModel(NALLATECH_385A)
    meas = model.predict_measured(spec, cfg, shape, 1000, fmax_mhz=fmax)
    assert meas.gbs == pytest.approx(meas_paper, rel=0.05)


def test_gflops_and_gcell_consistency() -> None:
    """GFLOP/s = GCell/s x FLOP/cell; GB/s = GCell/s x 8."""
    spec, cfg, shape, _, _, fmax = _setup(3, 2)
    est = PerformanceModel(NALLATECH_385A).estimate(spec, cfg, shape, 1000, fmax)
    assert est.gflop_s == pytest.approx(est.gcell_s * 25)
    assert est.gbs == pytest.approx(est.gcell_s * 8)


def test_2d_compute_bound_3d_high_order_compute_bound() -> None:
    """The paper's temporal blocking makes the designs compute-bound
    (effective throughput above physical bandwidth)."""
    model = PerformanceModel(NALLATECH_385A)
    for dims, radius in ((2, 1), (2, 4), (3, 2), (3, 4)):
        spec, cfg, shape, _, _, fmax = _setup(dims, radius)
        est = model.estimate(spec, cfg, shape, 1000, fmax)
        assert est.gbs > NALLATECH_385A.peak_bandwidth_gbps


def test_gbs_exceeds_physical_bandwidth_headline_claim() -> None:
    """Headline: >700 GFLOP/s 2D and >270 GFLOP/s 3D via the model chain."""
    model = PerformanceModel(NALLATECH_385A)
    for dims, threshold in ((2, 700.0), (3, 270.0)):
        for radius in (1, 2, 3, 4):
            spec, cfg, shape, _, _, fmax = _setup(dims, radius)
            meas = model.predict_measured(spec, cfg, shape, 1000, fmax)
            assert meas.gflop_s > threshold * 0.95


def test_model_accuracy_bands() -> None:
    """Model accuracy ~85 % (2D) and ~55-60 % (3D) — Table III column."""
    model = PerformanceModel(NALLATECH_385A)
    for radius in (1, 2, 3, 4):
        _, cfg2, _, _, _, _ = _setup(2, radius)
        assert model.model_accuracy(cfg2) == pytest.approx(0.85, abs=0.02)
        _, cfg3, _, _, _, _ = _setup(3, radius)
        assert 0.5 <= model.model_accuracy(cfg3) <= 0.62


def test_partime_scaling_keeps_gflops_flat_2d() -> None:
    """§V.A intuition: dividing partime by radius keeps GFLOP/s roughly
    constant while GCell/s drops proportional to radius."""
    model = PerformanceModel(NALLATECH_385A)
    base_spec, base_cfg, shape, _, _, _ = _setup(2, 1)
    base = model.estimate(base_spec, base_cfg, shape, 1000, fmax_mhz=320.0)
    for radius in (2, 4):
        spec = StencilSpec.star(2, radius)
        cfg = BlockingConfig(
            dims=2, radius=radius, bsize_x=4096, parvec=8,
            partime=36 // radius,
        )
        est = model.estimate(spec, cfg, shape, 1000, fmax_mhz=320.0)
        assert est.gcell_s == pytest.approx(base.gcell_s / radius, rel=0.05)
        assert est.gflop_s == pytest.approx(
            base.gflop_s * (8 * radius + 1) / (radius * 9), rel=0.05
        )


def test_fmax_model_used_when_fmax_not_given() -> None:
    spec, cfg, shape, _, _, fmax = _setup(2, 1)
    model = PerformanceModel(NALLATECH_385A)
    auto = model.estimate(spec, cfg, shape, 1000)
    explicit = model.estimate(spec, cfg, shape, 1000, fmax_mhz=fmax)
    assert auto.gbs == pytest.approx(explicit.gbs)


def test_invalid_inputs() -> None:
    spec, cfg, shape, _, _, _ = _setup(2, 1)
    model = PerformanceModel(NALLATECH_385A)
    with pytest.raises(ConfigurationError):
        model.estimate(spec, cfg, shape, 0)
    with pytest.raises(ConfigurationError):
        model.estimate(StencilSpec.star(2, 2), cfg, shape, 10)


def test_two_pass_accountings_are_explicit() -> None:
    """Regression for the double-ceil bug: ``passes`` is the hardware's
    integer ceil, ``model_passes`` the paper's fractional normalization,
    and time/cycles/dram_bytes derive from the fractional one."""
    spec = StencilSpec.star(2, 2)
    cfg = BlockingConfig(dims=2, radius=2, bsize_x=256, parvec=4, partime=7)
    shape = (1024, 1024)
    model = PerformanceModel(NALLATECH_385A)
    est = model.estimate(spec, cfg, shape, 10, fmax_mhz=300.0)

    assert est.passes == cfg.passes(10) == 2  # ceil(10/7)
    assert est.model_passes == pytest.approx(10 / 7)
    # throughput uses the fractional accounting, so halving the partime
    # remainder does NOT quantize time to whole passes
    est9 = model.estimate(spec, cfg, shape, 9, fmax_mhz=300.0)
    assert est9.passes == 2
    assert est9.time_s < est.time_s  # 9/7 < 10/7 even at equal hw passes
    # cycles and dram_bytes scale with model_passes (ceil'd to ints),
    # not with the hardware pass count
    est7 = model.estimate(spec, cfg, shape, 7, fmax_mhz=300.0)
    assert est.cycles == pytest.approx(est7.cycles * 10 / 7, abs=1.0)
    assert est.dram_bytes == pytest.approx(est7.dram_bytes * 10 / 7, abs=1.0)
    # the hardware accounting would have doubled them instead
    assert est.cycles < 2 * est7.cycles


def test_exact_multiple_iterations_accountings_agree() -> None:
    """When iterations % partime == 0 both accountings coincide."""
    spec = StencilSpec.star(2, 1)
    cfg = BlockingConfig(dims=2, radius=1, bsize_x=128, parvec=4, partime=5)
    est = PerformanceModel(NALLATECH_385A).estimate(
        spec, cfg, (512, 512), 20, fmax_mhz=300.0
    )
    assert est.passes == 4
    assert est.model_passes == 4.0


def test_scaled_by_efficiency_preserves_both_accountings() -> None:
    spec = StencilSpec.star(2, 1)
    cfg = BlockingConfig(dims=2, radius=1, bsize_x=128, parvec=4, partime=3)
    est = PerformanceModel(NALLATECH_385A).estimate(
        spec, cfg, (512, 512), 10, fmax_mhz=300.0
    )
    derated = est.scaled_by_efficiency(0.85)
    assert derated.passes == est.passes
    assert derated.model_passes == est.model_passes
    assert derated.time_s == pytest.approx(est.time_s / 0.85)


# -- batch amortization term ------------------------------------------------- #


def test_predict_batch_scales_work_and_pays_overhead_once() -> None:
    from repro.models.performance import LAUNCH_OVERHEAD_S

    spec = StencilSpec.star(2, 1)
    cfg = BlockingConfig(dims=2, radius=1, bsize_x=32, parvec=4, partime=2)
    model = PerformanceModel(NALLATECH_385A)
    single = model.predict_measured(spec, cfg, (16, 16), 4)
    batch = model.predict_batch(spec, cfg, (16, 16), 4, n_grids=64)
    assert batch.time_s == pytest.approx(
        64 * single.time_s + LAUNCH_OVERHEAD_S
    )
    assert batch.cycles == 64 * single.cycles
    assert batch.dram_bytes == 64 * single.dram_bytes
    assert batch.passes == single.passes  # per-grid pass count
    with pytest.raises(ConfigurationError):
        model.predict_batch(spec, cfg, (16, 16), 4, n_grids=0)


def test_batch_amortization_limits() -> None:
    spec = StencilSpec.star(2, 1)
    cfg = BlockingConfig(dims=2, radius=1, bsize_x=32, parvec=4, partime=2)
    model = PerformanceModel(NALLATECH_385A)
    # tiny grids, huge batch: launch overhead dominates, big win
    tiny = model.batch_amortization(spec, cfg, (16, 16), 4, n_grids=1024)
    assert tiny > 5.0
    # batch of one still wins (shared launch == per-job launch minus nothing
    # amortized), but only marginally
    one = model.batch_amortization(spec, cfg, (16, 16), 4, n_grids=1)
    assert 1.0 <= one < tiny
    # large per-grid work: the overhead is noise, ratio -> 1
    big_cfg = BlockingConfig(
        dims=2, radius=1, bsize_x=256, parvec=4, partime=2
    )
    big = model.batch_amortization(spec, big_cfg, (512, 512), 64, n_grids=8)
    assert big == pytest.approx(1.0, rel=0.05)
    assert big < tiny

