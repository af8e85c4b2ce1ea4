"""Tests for the Xeon/Xeon Phi platform model."""

from __future__ import annotations

import pytest

from repro.baselines.cpu_yask import XEON, XEON_PHI, CPUPlatformModel
from repro.core import StencilSpec
from repro.errors import ConfigurationError
from repro.hardware import device

# Tables IV/V: paper-reported YASK GCell/s.
PAPER_XEON = {
    (2, 1): 5.034, (2, 2): 5.015, (2, 3): 4.980, (2, 4): 5.007,
    (3, 1): 4.714, (3, 2): 4.609, (3, 3): 4.108, (3, 4): 4.199,
}
PAPER_PHI = {
    (2, 1): 24.756, (2, 2): 23.455, (2, 3): 23.690, (2, 4): 23.006,
    (3, 1): 22.230, (3, 2): 21.972, (3, 3): 21.312, (3, 4): 21.822,
}


# ------------------------------ model --------------------------------- #

@pytest.mark.parametrize(("dims", "radius"), sorted(PAPER_XEON))
def test_xeon_model_matches_tables(dims: int, radius: int) -> None:
    perf = XEON.predict(StencilSpec.star(dims, radius))
    assert perf.gcell_s == pytest.approx(PAPER_XEON[(dims, radius)], rel=0.02)


@pytest.mark.parametrize(("dims", "radius"), sorted(PAPER_PHI))
def test_phi_model_matches_tables(dims: int, radius: int) -> None:
    perf = XEON_PHI.predict(StencilSpec.star(dims, radius))
    assert perf.gcell_s == pytest.approx(PAPER_PHI[(dims, radius)], rel=0.02)


def test_gflops_grow_with_radius_gcell_flat() -> None:
    """Figs. 3-4 trend for CPUs: GCell/s flat, GFLOP/s ~linear in radius."""
    results = [XEON_PHI.predict(StencilSpec.star(3, r)) for r in (1, 2, 3, 4)]
    gcell = [r.gcell_s for r in results]
    assert max(gcell) / min(gcell) < 1.1
    gflops = [r.gflop_s for r in results]
    assert gflops[3] > 3 * gflops[0]


def test_roofline_ratio_below_one() -> None:
    """No temporal blocking: CPUs cannot exceed the memory roofline."""
    for model in (XEON, XEON_PHI):
        for dims in (2, 3):
            for rad in (1, 2, 3, 4):
                perf = model.predict(StencilSpec.star(dims, rad))
                assert perf.roofline_ratio < 1.0


def test_xeon_2d_table4_gflops_and_efficiency() -> None:
    """Table IV row check: GFLOP/s and GFLOP/s/W for Xeon, radius 4."""
    perf = XEON.predict(StencilSpec.star(2, 4))
    assert perf.gflop_s == pytest.approx(165.231, rel=0.02)
    assert perf.gflops_per_watt == pytest.approx(1.737, rel=0.05)


def test_utilization_fallback_beyond_fitted_range() -> None:
    model = CPUPlatformModel(device("xeon"), {(2, 1): 0.5}, "xeon")
    assert model.bandwidth_utilization(2, 9) == pytest.approx(0.5)
    with pytest.raises(ConfigurationError):
        model.bandwidth_utilization(3, 1)
