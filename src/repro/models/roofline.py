"""Roofline model [23] and the paper's roofline-ratio metric.

Tables IV/V report a "Roofline Ratio": achieved GFLOP/s divided by the
memory-bound roofline ``intensity x peak_bandwidth``.  Without temporal
blocking it equals the utilized fraction of external bandwidth and cannot
exceed 1; the FPGA's temporal blocking pushes it far above 1 (19.76 for
the first-order 2D stencil).
"""

from __future__ import annotations

from repro.errors import ConfigurationError


def roofline_gflops(
    peak_gflops: float, peak_bandwidth_gbps: float, flop_per_byte: float
) -> float:
    """Attainable GFLOP/s under the classic roofline."""
    if peak_gflops <= 0 or peak_bandwidth_gbps <= 0 or flop_per_byte <= 0:
        raise ConfigurationError("roofline inputs must be positive")
    return min(peak_gflops, peak_bandwidth_gbps * flop_per_byte)


def roofline_ratio(
    achieved_gflops: float, peak_bandwidth_gbps: float, flop_per_byte: float
) -> float:
    """Achieved GFLOP/s over the memory roofline (Tables IV/V column).

    Values above 1 are only possible with temporal blocking (on-chip
    reuse across time steps).
    """
    if peak_bandwidth_gbps <= 0 or flop_per_byte <= 0:
        raise ConfigurationError("roofline inputs must be positive")
    return achieved_gflops / (peak_bandwidth_gbps * flop_per_byte)
