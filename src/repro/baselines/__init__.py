"""Baselines the paper compares against.

* :mod:`repro.baselines.naive` — pure-Python oracle for tiny grids, the
  independent check of :mod:`repro.core.reference` itself.
* :mod:`repro.baselines.cpu_yask` — the Xeon / Xeon Phi performance
  model of YASK [9] (Tables IV/V).
* :mod:`repro.baselines.gpu_inplane` — Tang et al. in-plane GPU model
  [10] with the paper's bandwidth-ratio extrapolation.

The CPU and GPU baselines are analytic models fitted to the paper's
reported numbers; no CPU or GPU stencil engine of theirs runs here.
"""

from repro.baselines.naive import naive_run
from repro.baselines.cpu_yask import CPUPlatformModel, XEON, XEON_PHI
from repro.baselines.gpu_inplane import InPlaneGPUModel

__all__ = [
    "naive_run",
    "CPUPlatformModel",
    "XEON",
    "XEON_PHI",
    "InPlaneGPUModel",
]
