"""Core library: the paper's primary contribution.

This subpackage implements the stencil specification, the golden reference
engine, the blocking geometry, and the functional simulator of the paper's
OpenCL FPGA stencil accelerator (read kernel -> PE chain -> write kernel,
with combined spatial and temporal blocking).
"""

from repro.core.stencil import Direction, StencilSpec
from repro.core.grid import make_grid
from repro.core.reference import reference_step, reference_run
from repro.core.blocking import BlockingConfig, BlockDecomposition
from repro.core.batch import BatchPlan, BatchResult
from repro.core.accelerator import FPGAAccelerator, AcceleratorStats

__all__ = [
    "Direction",
    "StencilSpec",
    "make_grid",
    "reference_step",
    "reference_run",
    "BlockingConfig",
    "BlockDecomposition",
    "BatchPlan",
    "BatchResult",
    "FPGAAccelerator",
    "AcceleratorStats",
]
