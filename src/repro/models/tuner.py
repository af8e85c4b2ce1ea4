"""Design-space exploration / parameter tuner (paper §V.A).

Enumerates ``(bsize, parvec, partime)`` under the paper's constraints:

* eq. 4/5: ``partime * parvec <= par_total = floor(DSPs / DSP-per-update)``
* eq. 6:   ``(partime * rad) mod 4 == 0`` (external-memory alignment)
* ``parvec`` a power of two in [2, 16] (memory-port widths)
* positive compute-block size (eq. 2) and the design must fit the device
  (Block RAM in *observed* mode — the paper's high-order 3D configs are
  BRAM-constrained, which is what forced ``bsize_y`` from 256 to 128)

then ranks candidates by the performance model's predicted runtime for the
target workload, returning the top few configurations to place-and-route
(the paper keeps "usually two").

:meth:`Tuner.shortlist` serves the empirical autotuner, which runs the
candidates on this host's pass driver rather than on an FPGA.  The
driver's worker pool claims a pass's ``(grid, block)`` units off one
atomic counter, so a tiling whose blocks carry unequal work leaves
workers idle however fast the FPGA model says it is.  The shortlist
therefore multiplies the predicted time by the pool's imbalance
(:func:`pool_load`), counted analytically from the same per-stage shrink
windows the driver executes (:func:`unit_stage_cells`).
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from repro.core.blocking import BlockingConfig
from repro.core.stencil import StencilSpec
from repro.errors import ConfigurationError
from repro.fpga.board import Board
from repro.models.area import AreaModel, AreaReport, par_total
from repro.models.performance import PerformanceEstimate, PerformanceModel

#: The paper's block-size menu (§V.A).  3D entries are (bsize_x, bsize_y):
#: the paper's "256x128" keeps the full 256 in the vectorized x dimension
#: and halves y.
DEFAULT_BSIZES_2D = (4096,)
DEFAULT_BSIZES_3D = ((256, 256), (256, 128), (128, 128))

#: Memory-port widths restrict parvec to powers of two up to 16 cells.
PARVEC_CHOICES = (2, 4, 8, 16)


def _axis_widths(
    extent: int, csize: int, radius: int, steps: int, periodic: bool
) -> np.ndarray:
    """Update-window widths along one blocked axis, ``(blocks, steps)``.

    Block ``i`` computes ``[i * csize, min((i + 1) * csize, extent))``;
    at chain stage ``s`` its window reaches ``(steps - s) * radius``
    further on each side, pinned to the grid border under clamp — the
    shrink schedule of :meth:`repro.core.plan.PassPlan.windows`.
    """
    starts = np.arange(0, extent, csize, dtype=np.int64)
    stops = np.minimum(starts + csize, extent)
    reach = (steps - np.arange(1, steps + 1, dtype=np.int64)) * radius
    lo = starts[:, None] - reach
    hi = stops[:, None] + reach
    if not periodic:
        lo = np.maximum(lo, 0)
        hi = np.minimum(hi, extent)
    return hi - lo


def unit_stage_cells(
    config: BlockingConfig,
    grid_shape: tuple[int, ...],
    boundary: str,
    steps: int,
) -> np.ndarray:
    """Cells each block's PE stages update in one ``steps``-pass.

    One entry per block, in the order the driver's claim counter hands
    the blocks out (x fastest).  Each is the sum over stages of the
    stage window's volume — what the driver's tables say it computes —
    counted per axis, without building a :class:`~repro.core.plan
    .PassPlan`.
    """
    periodic = boundary == "periodic"
    widths = [
        _axis_widths(int(grid_shape[ax]), cs, config.radius, steps, periodic)
        for ax, cs in zip(config.blocked_axes, config.csize)
    ]
    stream = int(grid_shape[config.streamed_axis])
    if config.dims == 2:
        return stream * widths[0].sum(axis=1)
    wy, wx = widths
    return stream * (wy @ wx.T).ravel()


def claim_makespan(cells: list[int], workers: int) -> int:
    """Cells of the busiest worker when ``workers`` claim units in order.

    Each worker takes the next unclaimed unit as soon as it finishes its
    last, so with time proportional to cells every unit goes to the
    least-loaded worker.
    """
    if workers >= len(cells):
        return max(cells)
    loads = [0] * workers
    for c in cells:
        heapq.heapreplace(loads, loads[0] + c)
    return max(loads)


def pool_load(
    config: BlockingConfig,
    grid_shape: tuple[int, ...],
    iterations: int,
    workers: int,
    boundary: str = "clamp",
) -> tuple[float, int]:
    """``(imbalance, makespan cells)`` of the served passes on the pool.

    The served passes are :meth:`~repro.core.blocking.BlockingConfig
    .served_passes`: the full passes and the tail pass.  The makespan is
    the busiest worker's cells summed over them, and the imbalance is
    ``workers * makespan / total cells``: 1.0 when the units split
    evenly, ``workers`` when one worker does all.
    """
    makespan = total = 0
    for steps, count in config.served_passes(iterations):
        cells = unit_stage_cells(config, grid_shape, boundary, steps).tolist()
        makespan += count * claim_makespan(cells, workers)
        total += count * sum(cells)
    return workers * makespan / total, makespan


def _plan_key(config: BlockingConfig, blocked: list[int]) -> tuple:
    """The pass plan a design compiles to: two designs with one key run one plan.

    Block sizes that cover an axis, or reach past it by different
    amounts, decompose it alike; the vector width is ``parvec``.
    """
    return (
        config.parvec,
        config.partime,
        tuple(min(cs, n) for cs, n in zip(config.csize, blocked)),
    )


@dataclass(frozen=True)
class TunedDesign:
    """One ranked design point.

    ``imbalance`` and ``makespan_cells`` are the driver pool's load on
    the served passes (:func:`pool_load`), set by :meth:`Tuner.shortlist`;
    the offline FPGA flow leaves them at 1.0 and 0.
    """

    config: BlockingConfig
    estimate: PerformanceEstimate
    area: AreaReport
    imbalance: float = 1.0
    makespan_cells: int = 0

    @property
    def key(self) -> tuple:
        """Sort key: faster on the pool first, then less BRAM, then fewer DSPs.

        With one worker (or outside the shortlist) the imbalance is 1.0
        and this is the FPGA model's key.
        """
        return (
            self.estimate.time_s * self.imbalance,
            self.area.m20k_fraction,
            self.area.dsps,
        )


class Tuner:
    """Enumerates and ranks accelerator configurations for a stencil."""

    def __init__(
        self,
        spec: StencilSpec,
        board: Board,
        area_model: AreaModel | None = None,
        performance_model: PerformanceModel | None = None,
        bsizes: tuple | None = None,
        parvec_choices: tuple[int, ...] = PARVEC_CHOICES,
    ):
        self.spec = spec
        self.board = board
        self.area_model = (
            area_model if area_model is not None else AreaModel(board.device)
        )
        self.performance_model = (
            performance_model
            if performance_model is not None
            else PerformanceModel(board)
        )
        if bsizes is None:
            bsizes = DEFAULT_BSIZES_2D if spec.dims == 2 else DEFAULT_BSIZES_3D
        self.bsizes = bsizes
        self.parvec_choices = parvec_choices

    # ------------------------------------------------------------------ #

    def valid_partimes(
        self, parvec: int, bsize_x: int | None = None
    ) -> list[int]:
        """All partime values satisfying eqs. 5-6 and, given ``bsize_x``,
        eq. 2 positivity."""
        rad = self.spec.radius
        limit = par_total(self.board.device, self.spec) // parvec
        out = []
        for partime in range(1, limit + 1):
            if (partime * rad) % 4 != 0:
                continue
            if bsize_x is not None and bsize_x - 2 * partime * rad < 1:
                continue
            out.append(partime)
        return out

    def enumerate_configs(
        self, bsizes: tuple | None = None
    ) -> list[BlockingConfig]:
        """All candidate configurations before area filtering.

        ``bsizes`` overrides the tuner's block-size menu.
        """
        configs: list[BlockingConfig] = []
        for bsize in self.bsizes if bsizes is None else bsizes:
            if self.spec.dims == 2:
                bsize_x, bsize_y = int(bsize), None
            else:
                bsize_x, bsize_y = int(bsize[0]), int(bsize[1])
            for parvec in self.parvec_choices:
                if bsize_x % parvec != 0:
                    continue
                for partime in self.valid_partimes(parvec, bsize_x):
                    if bsize_y is not None and bsize_y - 2 * partime * self.spec.radius < 1:
                        continue
                    configs.append(
                        BlockingConfig(
                            dims=self.spec.dims,
                            radius=self.spec.radius,
                            bsize_x=bsize_x,
                            bsize_y=bsize_y,
                            parvec=parvec,
                            partime=partime,
                        )
                    )
        return configs

    def _feasible(
        self,
        configs: list[BlockingConfig],
        grid_shape: tuple[int, ...],
        iterations: int,
    ) -> list[TunedDesign]:
        """Area-filtered designs with their FPGA estimates, in FPGA-key order."""
        designs: list[TunedDesign] = []
        for config in configs:
            area = self.area_model.report(self.spec, config)
            if not area.fits:
                continue
            est = self.performance_model.estimate(
                self.spec, config, grid_shape, iterations
            )
            designs.append(TunedDesign(config=config, estimate=est, area=area))
        if not designs:
            raise ConfigurationError(
                f"no feasible design for {self.spec.describe()} on "
                f"{self.board.name}"
            )
        designs.sort(key=lambda d: d.key)
        return designs

    def tune(
        self,
        grid_shape: tuple[int, ...],
        iterations: int,
        top_k: int = 2,
    ) -> list[TunedDesign]:
        """Rank all feasible designs for a workload; return the best ``top_k``.

        ``grid_shape`` is the target input; following §IV.C the model is
        most meaningful when the blocked extents are csize multiples.
        """
        if top_k < 1:
            raise ConfigurationError(f"top_k must be >= 1, got {top_k}")
        return self._feasible(self.enumerate_configs(), grid_shape, iterations)[
            :top_k
        ]

    def best(self, grid_shape: tuple[int, ...], iterations: int) -> TunedDesign:
        """The single best design for a workload."""
        return self.tune(grid_shape, iterations, top_k=1)[0]

    # ------------------------------------------------------------------ #
    # empirical-autotuner support
    # ------------------------------------------------------------------ #

    def _shortlist_configs(
        self, blocked: list[int], workers: int
    ) -> list[BlockingConfig]:
        """The shape-aware menu of :meth:`shortlist`, before area filtering.

        The paper's menu, plus each blocked extent and its halves and
        quarters, plus per ``partime`` the block sizes whose compute
        extents split an axis into ``q`` equal parts for ``q`` in
        ``{workers, 2 * workers}`` (``bsize = ceil(n / q) + 2 * partime
        * rad``).  In 3D each is combined with the other axis split the
        same way or left whole by a menu size that covers it.
        Sizes are per blocked axis in array order: ``(x,)`` in 2D,
        ``(y, x)`` in 3D.
        """
        dims, rad = self.spec.dims, self.spec.radius
        menu = [
            (int(b),) if dims == 2 else (int(b[1]), int(b[0]))
            for b in self.bsizes
        ]
        # x outermost, as the paper's menu lists 3D sizes
        for sizes in itertools.product(
            *((n, n // 2, n // 4) for n in reversed(blocked))
        ):
            if min(sizes) >= 1:
                menu.append(sizes[::-1])
        configs = self.enumerate_configs(
            tuple(m[0] if dims == 2 else (m[1], m[0]) for m in menu)
        )
        for parvec in self.parvec_choices:
            for partime in self.valid_partimes(parvec):
                halo2 = 2 * partime * rad
                even = [
                    {-(-n // q) + halo2 for q in (workers, 2 * workers)}
                    for n in blocked
                ]
                # the other axis unsplit (a menu size that covers it) or
                # evenly split
                axes = [
                    sorted(e | {m[i] for m in menu if m[i] - halo2 >= n})
                    for i, (e, n) in enumerate(zip(even, blocked))
                ]
                for sizes in itertools.product(*axes):
                    if not any(b in e for b, e in zip(sizes, even)):
                        continue  # on the menu above already
                    if sizes[-1] % parvec or min(sizes) - halo2 < 1:
                        continue
                    configs.append(
                        BlockingConfig(
                            dims=dims,
                            radius=rad,
                            bsize_x=sizes[-1],
                            bsize_y=sizes[0] if dims == 3 else None,
                            parvec=parvec,
                            partime=partime,
                        )
                    )
        return list(dict.fromkeys(configs))

    def shortlist(
        self,
        grid_shape: tuple[int, ...],
        iterations: int,
        k: int = 4,
        workers: int = 1,
        boundary: str = "clamp",
    ) -> list[TunedDesign]:
        """Candidates worth micro-benchmarking on a ``workers``-thread pool.

        The offline flow (:meth:`tune`) ranks the paper's fixed block-size
        menu; the empirical autotuner instead needs a *shape-aware* menu
        (:meth:`_shortlist_configs`) — a small grid tiled by one oversized
        block gives the measurement nothing to choose between, and a
        tiling into unequal blocks leaves pool workers idle.  Feasible
        designs (same area filter) are ranked by predicted FPGA time ×
        pool imbalance (:func:`pool_load` over the served passes), then
        BRAM, then DSPs.  Designs that run the same plan take one slot
        (the best-ranked one); the top ``k`` distinct plans are returned
        for :class:`repro.runtime.autotune.Autotuner` to measure.

        Purely analytical — nothing is executed here.  Since the
        imbalance is at least 1, designs are scored in FPGA-time order
        and the scan stops once the FPGA time alone exceeds the ``k``-th
        best pool-scaled time.
        """
        if k < 1:
            raise ConfigurationError(f"k must be >= 1, got {k}")
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        shape = tuple(int(n) for n in grid_shape)
        blocked = [shape[ax] for ax in range(1, self.spec.dims)]
        designs = self._feasible(
            self._shortlist_configs(blocked, workers), shape, iterations
        )
        best: dict[tuple, TunedDesign] = {}
        bound = math.inf
        for design in designs:
            if design.estimate.time_s > bound:
                break
            plan = _plan_key(design.config, blocked)
            if plan in best:
                continue  # one plan, one pool load: the first ranks best
            imbalance, makespan = pool_load(
                design.config, shape, iterations, workers, boundary
            )
            best[plan] = replace(
                design, imbalance=imbalance, makespan_cells=makespan
            )
            if len(best) >= k:
                bound = sorted(d.key for d in best.values())[k - 1][0]
        return sorted(best.values(), key=lambda d: d.key)[:k]
