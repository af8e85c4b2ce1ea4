"""The benchmark's workloads and their seeded inputs.

The program under test receives only what these produce: a stencil
spec, a blocking config (or ``None`` for the autotuner) and float32
arrays.  Inputs come from ``numpy.random.default_rng(seed)``, so one
seed gives the same arrays on every commit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.blocking import BlockingConfig
from repro.core.stencil import StencilSpec


@dataclass(frozen=True)
class Workload:
    """One traffic mix: a stencil, a grid shape and a closed-loop client."""

    name: str
    why: str
    dims: int
    radius: int
    shape: tuple[int, ...]
    iterations: int
    #: ``BlockingConfig`` fields; ``None`` lets the autotuner pick at
    #: admission, so set-up includes a cold autotune.
    config: dict | None
    #: Grids the single client steps in lockstep (closed loop): it
    #: submits one request per grid, then waits for all their replies.
    in_flight: int
    tenants: int
    #: Distinct seeded inputs, submitted round-robin.
    pool: int
    #: Counted replies at which peak RSS is read; reached within a 30 s
    #: window in the slowest host phase measured.
    rss_replies: int
    #: Run each process of the workload on one CPU.  Set where the
    #: client and dispatch threads hand the GIL to each other thousands
    #: of times a second: whether the kernel then keeps them on one CPU
    #: or two moves the rate by a third, and that choice is no part of
    #: the program.  Such a workload cannot show a gain from a second
    #: core, so this is left unset elsewhere.
    one_cpu: bool = False

    @property
    def cells(self) -> int:
        return int(np.prod(self.shape))

    def spec(self) -> StencilSpec:
        return StencilSpec.star(self.dims, self.radius)

    def blocking(self) -> BlockingConfig | None:
        if self.config is None:
            return None
        return BlockingConfig(dims=self.dims, radius=self.radius, **self.config)

    def tenant(self, i: int) -> str:
        return f"tenant-{i % self.tenants}"

    def inputs(self, seed: int) -> np.ndarray:
        """``pool`` seeded grids stacked on axis 0 (float32 in [0, 1))."""
        rng = np.random.default_rng(seed)
        return rng.random((self.pool, *self.shape), dtype=np.float32)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="bulk-3d-r4",
            why=(
                "the paper's highest-order 3D case (48x128x128, 8 iterations), "
                "time mostly in the engine; config=None, so set-up includes "
                "a cold autotune"
            ),
            dims=3, radius=4, shape=(48, 128, 128), iterations=8,
            config=None, in_flight=1, tenants=1, pool=4, rss_replies=500,
        ),
        Workload(
            name="bulk-2d-r2",
            why=(
                "same engine layer at low flop/byte (1024x1024, 16 "
                "iterations), config pinned; catches a change that helps "
                "3D and hurts 2D"
            ),
            dims=2, radius=2, shape=(1024, 1024), iterations=16,
            config={"bsize_x": 512, "parvec": 4, "partime": 4},
            in_flight=1, tenants=1, pool=4, rss_replies=500,
        ),
        Workload(
            name="small-grids",
            why=(
                "32x32 grids, 32 stepped in lockstep over 4 tenants: "
                "admission, fair queueing, coalescing into batches and "
                "pack/unpack do the work, the engine almost none"
            ),
            dims=2, radius=2, shape=(32, 32), iterations=4,
            config={"bsize_x": 64, "parvec": 4, "partime": 2},
            in_flight=32, tenants=4, pool=128, rss_replies=200_000,
            one_cpu=True,
        ),
    )
}
