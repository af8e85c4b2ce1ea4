"""Tests for the fmax, power and roofline models."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.models.fmax import MEASURED_FMAX_MHZ, FmaxModel
from repro.models.power import (
    GPU_TDP_FRACTION,
    cpu_power_watts,
    fpga_power_watts,
    gpu_power_watts,
)
from repro.models.roofline import roofline_gflops, roofline_ratio


# ------------------------------ fmax ---------------------------------- #

def test_fitted_fmax_returns_measured_values() -> None:
    model = FmaxModel()
    for (dims, rad), mhz in MEASURED_FMAX_MHZ.items():
        assert model.fmax_mhz(dims, rad) == mhz


def test_fmax_decreases_with_radius_fitted() -> None:
    """§VI.A: fmax decreases with higher order on the Arria 10."""
    model = FmaxModel()
    for dims in (2, 3):
        values = [model.fmax_mhz(dims, r) for r in (1, 2, 3, 4)]
        assert all(a >= b for a, b in zip(values, values[1:]))


def test_high_order_3d_below_controller_clock() -> None:
    """§VI.A: 2nd-4th order 3D designs cannot exceed 266 MHz."""
    model = FmaxModel()
    for rad in (2, 3, 4):
        assert model.fmax_mhz(3, rad) < 266.0
    assert model.fmax_mhz(3, 1) > 266.0


def test_ideal_mode_radius_independent() -> None:
    """The Stratix V observation: same fmax regardless of radius."""
    model = FmaxModel(mode="ideal")
    assert len({model.fmax_mhz(2, r) for r in range(1, 8)}) == 1


def test_extrapolation_beyond_radius_4() -> None:
    model = FmaxModel()
    f5 = model.fmax_mhz(3, 5)
    assert 0 < f5 < model.fmax_mhz(3, 4)


def test_fmax_invalid_inputs() -> None:
    with pytest.raises(ConfigurationError):
        FmaxModel(mode="guess")
    with pytest.raises(ConfigurationError):
        FmaxModel().fmax_mhz(4, 1)
    with pytest.raises(ConfigurationError):
        FmaxModel().fmax_mhz(2, 0)


# ------------------------------ power --------------------------------- #

def test_fpga_power_reproduces_table3_within_10pct() -> None:
    """The fitted linear model lands within 10 % of all 8 Table III rows."""
    rows = [
        (343.76, 0.95, 0.83, 0.55, 72.530),
        (322.47, 1.00, 1.00, 0.64, 69.611),
        (302.75, 0.96, 1.00, 0.57, 66.139),
        (301.20, 0.99, 1.00, 0.60, 68.925),
        (286.61, 0.89, 1.00, 0.60, 71.628),
        (262.88, 0.83, 0.87, 0.44, 59.664),
        (255.36, 0.81, 0.99, 0.44, 63.183),
        (242.77, 0.80, 1.00, 0.47, 58.572),
    ]
    for fmax, dsp, m20k, logic, watts in rows:
        predicted = fpga_power_watts(fmax, dsp, m20k, logic)
        assert predicted == pytest.approx(watts, rel=0.10)


def test_fpga_power_monotone_in_fmax() -> None:
    lo = fpga_power_watts(240.0, 0.9, 0.9, 0.5)
    hi = fpga_power_watts(340.0, 0.9, 0.9, 0.5)
    assert hi > lo


def test_cpu_power_matches_paper_implied_values() -> None:
    """Tables IV/V imply Xeon ~87-99 W and Xeon Phi ~225 W."""
    for rad, implied in ((1, 86.96), (2, 90.51), (3, 93.54), (4, 95.12)):
        assert cpu_power_watts("xeon", rad) == pytest.approx(implied, rel=0.04)
    for rad in (1, 2, 3, 4):
        assert cpu_power_watts("xeon-phi", rad) == pytest.approx(225.0, rel=0.01)


def test_gpu_power_is_75pct_tdp() -> None:
    assert GPU_TDP_FRACTION == 0.75
    assert gpu_power_watts(244.0) == pytest.approx(183.0)
    assert gpu_power_watts(250.0) == pytest.approx(187.5)


def test_power_invalid_inputs() -> None:
    with pytest.raises(ConfigurationError):
        fpga_power_watts(0.0, 0.5, 0.5, 0.5)
    with pytest.raises(ConfigurationError):
        cpu_power_watts("gpu", 1)
    with pytest.raises(ConfigurationError):
        cpu_power_watts("xeon", 0)
    with pytest.raises(ConfigurationError):
        gpu_power_watts(-1.0)


# ----------------------------- roofline ------------------------------- #

def test_roofline_ratio_matches_table4_fpga() -> None:
    """Table IV: FPGA 2D rad-1 roofline ratio 19.76."""
    assert roofline_ratio(758.204, 34.1, 1.125) == pytest.approx(19.76, abs=0.02)


def test_roofline_ratio_matches_table4_xeon() -> None:
    """Table IV: Xeon 2D rad-1 roofline ratio 0.52."""
    assert roofline_ratio(45.306, 76.8, 1.125) == pytest.approx(0.52, abs=0.01)


def test_roofline_gflops() -> None:
    assert roofline_gflops(1450.0, 34.1, 1.125) == pytest.approx(38.36, abs=0.01)
    assert roofline_gflops(10.0, 1000.0, 10.0) == 10.0


def test_every_stencil_memory_bound_on_every_device() -> None:
    """§IV.B: all Table I stencils are memory-bound on all Table II
    devices without temporal blocking."""
    devices = [(1450, 34.1), (700, 76.8), (5325, 400), (1580, 192.4),
               (6900, 336.6), (9300, 720.9)]
    intensities = [1.125, 2.125, 3.125, 4.125, 1.625, 4.625, 6.125]
    for peak, bw in devices:
        for fpb in intensities:
            assert roofline_gflops(peak, bw, fpb) < peak


def test_roofline_invalid() -> None:
    with pytest.raises(ConfigurationError):
        roofline_gflops(-1, 1, 1)
    with pytest.raises(ConfigurationError):
        roofline_ratio(1, 0, 1)
