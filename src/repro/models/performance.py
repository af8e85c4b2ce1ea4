"""The performance model (paper §V, reconstructed from [8]; DESIGN.md §6).

Estimated (model) performance::

    cycles/pass = cells_processed_per_pass / parvec      (1 vector/cycle)
    passes      = ceil(iterations / partime)
    t_compute   = passes * cycles/pass / fmax
    t_memory    = passes * bytes/pass / BW_eff(fmax)
    t_est       = max(t_compute, t_memory)

where ``cells_processed_per_pass`` includes the overlapped-blocking halo
redundancy (each block occupies its full ``bsize`` footprint in the
pipeline) and ``BW_eff`` derates the board's peak bandwidth when the
kernel clock is below the memory-controller clock (§VI.A).

Predicted *measured* performance divides the estimate by the pipeline
efficiency of :class:`repro.fpga.memory.DDRModel` — the mechanistic stand-
in for the paper's model-accuracy column (~85 % 2D, ~55-60 % 3D).

Against the paper's Table III "Estimated Performance" column this
reconstruction lands within ~0.5-6 % (see EXPERIMENTS.md); the residual is
the unpublished latency/drain terms of [8].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.blocking import BlockDecomposition, BlockingConfig
from repro.core.stencil import StencilSpec
from repro.errors import ConfigurationError
from repro.fpga.board import Board
from repro.fpga.memory import DDRModel
from repro.models.fmax import FmaxModel

#: Fixed per-launch overhead (seconds) charged once per kernel *launch*:
#: the host driver call, argument marshalling and pipeline fill/drain.
#: Irrelevant against the paper's multi-second Table-III runs, but for
#: user-scale traffic of tiny grids it dominates — batching ``B`` grids
#: into one launch pays it once instead of ``B`` times (the
#: amortization term of :meth:`PerformanceModel.predict_batch`).  The
#: value matches the observed per-dispatch cost of the fused native
#: driver's ctypes path on small grids (tens of microseconds).
LAUNCH_OVERHEAD_S = 25e-6


@dataclass(frozen=True)
class PerformanceEstimate:
    """Predicted performance of one design point on one workload.

    ``gbs`` is the *effective* computation throughput the paper reports:
    cell updates x 8 bytes per second — with temporal blocking this
    exceeds the physical memory bandwidth (the paper's headline claim).

    **Two pass accountings.** The *hardware* runs an integer number of
    passes — ``passes = ceil(iterations / partime)``, exactly what
    :meth:`BlockingConfig.passes` returns and what
    :class:`~repro.core.accelerator.AcceleratorStats` counts.  The
    *model* normalizes per iteration with fractional passes
    (``model_passes = iterations / partime``), which is what the paper's
    throughput formulas use; ``time_s``, ``cycles`` and ``dram_bytes``
    derive from ``model_passes``.  At the paper's 1000 iterations the
    two differ by < 1 %; both are carried explicitly so no consumer has
    to guess which accounting a number came from.
    """

    time_s: float
    gcell_s: float
    gflop_s: float
    gbs: float
    cycles: int
    passes: int
    model_passes: float
    fmax_mhz: float
    compute_bound: bool
    pipeline_efficiency: float
    dram_bytes: int

    def scaled_by_efficiency(self, eta: float) -> "PerformanceEstimate":
        """The same workload with throughput derated by ``eta``."""
        return PerformanceEstimate(
            time_s=self.time_s / eta,
            gcell_s=self.gcell_s * eta,
            gflop_s=self.gflop_s * eta,
            gbs=self.gbs * eta,
            cycles=self.cycles,
            passes=self.passes,
            model_passes=self.model_passes,
            fmax_mhz=self.fmax_mhz,
            compute_bound=self.compute_bound,
            pipeline_efficiency=eta,
            dram_bytes=self.dram_bytes,
        )


class PerformanceModel:
    """Compute/memory performance model for the FPGA accelerator."""

    def __init__(
        self,
        board: Board,
        ddr: DDRModel | None = None,
        fmax_model: FmaxModel | None = None,
    ):
        self.board = board
        self.ddr = ddr if ddr is not None else DDRModel()
        self.fmax_model = fmax_model if fmax_model is not None else FmaxModel()

    # ------------------------------------------------------------------ #

    def estimate(
        self,
        spec: StencilSpec,
        config: BlockingConfig,
        grid_shape: tuple[int, ...],
        iterations: int,
        fmax_mhz: float | None = None,
        field_count: int = 1,
    ) -> PerformanceEstimate:
        """The paper's "Estimated Performance" (no pipeline inefficiency).

        ``field_count`` scales the external-memory traffic for multi-field
        kernels (e.g. 2 for the leapfrog wave extension, which streams two
        time levels each way); the compute side is unchanged (one vector
        of cell updates per cycle).
        """
        if spec.dims != config.dims or spec.radius != config.radius:
            raise ConfigurationError("spec and config must agree on dims and radius")
        if iterations < 1:
            raise ConfigurationError(f"iterations must be >= 1, got {iterations}")
        if field_count < 1:
            raise ConfigurationError(f"field_count must be >= 1, got {field_count}")
        if fmax_mhz is None:
            fmax_mhz = self.fmax_model.fmax_mhz(config.dims, config.radius)
        fmax_hz = fmax_mhz * 1e6

        decomp = BlockDecomposition(config, tuple(grid_shape))
        cells = 1
        for s in grid_shape:
            cells *= int(s)
        # Two accountings (see PerformanceEstimate): the model normalizes
        # per iteration with fractional passes; the hardware runs
        # BlockingConfig.passes() = ceil(iterations / partime) full ones.
        model_passes = iterations / config.partime
        hw_passes = config.passes(iterations)  # already an int ceil
        cells_per_pass = decomp.model_cells_per_pass()
        cycles_per_pass = cells_per_pass / config.parvec
        t_compute = model_passes * cycles_per_pass / fmax_hz

        # a pass writes every cell back once: the written cells are the
        # grid (BlockDecomposition.cells_written_per_pass, without walking
        # the blocks)
        bytes_per_pass = 4 * field_count * (cells_per_pass + cells)
        bw = self.board.effective_bandwidth_gbps(fmax_mhz) * 1e9
        t_memory = model_passes * bytes_per_pass / bw

        t = max(t_compute, t_memory)
        updates = cells * iterations
        gcell = updates / t / 1e9
        return PerformanceEstimate(
            time_s=t,
            gcell_s=gcell,
            gflop_s=gcell * spec.flops_per_cell,
            gbs=gcell * spec.bytes_per_cell,
            cycles=math.ceil(model_passes * cycles_per_pass),
            passes=hw_passes,
            model_passes=model_passes,
            fmax_mhz=fmax_mhz,
            compute_bound=t_compute >= t_memory,
            pipeline_efficiency=1.0,
            dram_bytes=math.ceil(model_passes * bytes_per_pass),
        )

    def predict_measured(
        self,
        spec: StencilSpec,
        config: BlockingConfig,
        grid_shape: tuple[int, ...],
        iterations: int,
        fmax_mhz: float | None = None,
        field_count: int = 1,
    ) -> PerformanceEstimate:
        """Estimate x pipeline efficiency — the modeled 'measured' value."""
        est = self.estimate(
            spec, config, grid_shape, iterations, fmax_mhz, field_count
        )
        eta = self.ddr.pipeline_efficiency(config)
        return est.scaled_by_efficiency(eta)

    def predict_batch(
        self,
        spec: StencilSpec,
        config: BlockingConfig,
        grid_shape: tuple[int, ...],
        iterations: int,
        n_grids: int,
        fmax_mhz: float | None = None,
        field_count: int = 1,
    ) -> PerformanceEstimate:
        """Modeled measured time for ``n_grids`` grids in *one* launch.

        The batch engine packs same-config grids into one slab and
        drives them through a single launch, so the per-grid stencil
        work scales linearly while :data:`LAUNCH_OVERHEAD_S` is paid
        once for the whole batch (per-job dispatch pays it per grid):

        ``t_batch = n_grids * t_grid + LAUNCH_OVERHEAD_S``

        Returned fields are batch totals (time, cycles, DRAM bytes scale
        by ``n_grids``; throughput counts every grid's cell updates);
        ``passes`` stays the *per-grid* hardware pass count.
        """
        if n_grids < 1:
            raise ConfigurationError(f"n_grids must be >= 1, got {n_grids}")
        est = self.predict_measured(
            spec, config, grid_shape, iterations, fmax_mhz, field_count
        )
        t = n_grids * est.time_s + LAUNCH_OVERHEAD_S
        cells = 1
        for s in grid_shape:
            cells *= int(s)
        gcell = n_grids * cells * iterations / t / 1e9
        return PerformanceEstimate(
            time_s=t,
            gcell_s=gcell,
            gflop_s=gcell * spec.flops_per_cell,
            gbs=gcell * spec.bytes_per_cell,
            cycles=n_grids * est.cycles,
            passes=est.passes,
            model_passes=est.model_passes,
            fmax_mhz=est.fmax_mhz,
            compute_bound=est.compute_bound,
            pipeline_efficiency=est.pipeline_efficiency,
            dram_bytes=n_grids * est.dram_bytes,
        )

    def batch_amortization(
        self,
        spec: StencilSpec,
        config: BlockingConfig,
        grid_shape: tuple[int, ...],
        iterations: int,
        n_grids: int,
        fmax_mhz: float | None = None,
    ) -> float:
        """Modeled jobs/sec speedup of one batched launch vs ``n_grids``
        per-job launches (>= 1; -> 1 as the per-grid work grows, ->
        ``n_grids``-limited as launch overhead dominates tiny grids)."""
        single = self.predict_measured(
            spec, config, grid_shape, iterations, fmax_mhz
        ).time_s
        per_job = n_grids * (single + LAUNCH_OVERHEAD_S)
        batched = self.predict_batch(
            spec, config, grid_shape, iterations, n_grids, fmax_mhz
        ).time_s
        return per_job / batched

    def model_accuracy(self, config: BlockingConfig) -> float:
        """Measured/estimated ratio — the paper's model-accuracy column."""
        return self.ddr.pipeline_efficiency(config)
