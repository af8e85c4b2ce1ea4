"""The Xeon / Xeon Phi platform model for the paper's YASK [9] baseline.

:class:`CPUPlatformModel` is the analytic model for paper-scale numbers:
both processors are memory-bound at every order and utilize a roughly
fixed ~44-52 % of their bandwidth (the paper's roofline-ratio
observation), so ``GCell/s = BW x utilization / 8``.  Utilization
constants are fitted per (device, dims, radius) to Tables IV/V, the same
way fmax is fitted to Table III.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.stencil import StencilSpec
from repro.errors import ConfigurationError
from repro.hardware.catalog import DeviceSpec, device
from repro.models.power import cpu_power_watts
from repro.models.roofline import roofline_ratio

#: Fitted bandwidth utilization per (dims, radius) — Tables IV/V roofline
#: ratios.  The paper's observation: roughly constant per device.
XEON_UTILIZATION = {
    (2, 1): 0.524, (2, 2): 0.522, (2, 3): 0.519, (2, 4): 0.522,
    (3, 1): 0.491, (3, 2): 0.480, (3, 3): 0.428, (3, 4): 0.437,
}
XEON_PHI_UTILIZATION = {
    (2, 1): 0.495, (2, 2): 0.469, (2, 3): 0.474, (2, 4): 0.460,
    (3, 1): 0.445, (3, 2): 0.439, (3, 3): 0.426, (3, 4): 0.436,
}


@dataclass(frozen=True)
class CPUPerformance:
    """Modeled YASK performance on one CPU platform."""

    gcell_s: float
    gflop_s: float
    power_watts: float
    roofline_ratio: float

    @property
    def gflops_per_watt(self) -> float:
        return self.gflop_s / self.power_watts


class CPUPlatformModel:
    """Memory-bound YASK performance model for Xeon / Xeon Phi.

    ``GCell/s = bandwidth x utilization / 8 bytes``; GFLOP/s scales with
    the stencil's FLOP/cell, which is why the paper's CPU GFLOP/s grows
    ~linearly with radius while GCell/s stays flat (§VI.B, Figs. 3-4).
    Temporal blocking is intentionally absent: the paper found it
    ineffective on these platforms (§V.B).
    """

    def __init__(
        self,
        spec_device: DeviceSpec,
        utilization: dict[tuple[int, int], float],
        power_key: str,
    ):
        self.device = spec_device
        self.utilization = dict(utilization)
        self.power_key = power_key

    def bandwidth_utilization(self, dims: int, radius: int) -> float:
        """Fitted utilization; falls back to the per-dims mean beyond the
        fitted range (the paper's 'fixed amount of bandwidth' claim)."""
        if (dims, radius) in self.utilization:
            return self.utilization[(dims, radius)]
        same_dims = [v for (d, _), v in self.utilization.items() if d == dims]
        if not same_dims:
            raise ConfigurationError(f"no utilization data for dims={dims}")
        return sum(same_dims) / len(same_dims)

    def predict(self, spec: StencilSpec) -> CPUPerformance:
        """Modeled performance for one stencil."""
        util = self.bandwidth_utilization(spec.dims, spec.radius)
        gcell = self.device.peak_bandwidth_gbps * util / spec.bytes_per_cell
        gflops = gcell * spec.flops_per_cell
        power = cpu_power_watts(self.power_key, spec.radius)
        return CPUPerformance(
            gcell_s=gcell,
            gflop_s=gflops,
            power_watts=power,
            roofline_ratio=roofline_ratio(
                gflops, self.device.peak_bandwidth_gbps, spec.flop_per_byte
            ),
        )


#: The paper's two CPU platforms.
XEON = CPUPlatformModel(device("xeon"), XEON_UTILIZATION, "xeon")
XEON_PHI = CPUPlatformModel(device("xeon-phi"), XEON_PHI_UTILIZATION, "xeon-phi")
