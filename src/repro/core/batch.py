"""Batched execution of many small same-config grids (ROADMAP item 4).

The paper's pipelines are sized for a handful of large Table-III grids,
but user-scale traffic is the opposite regime: millions of *small*
independent grids where per-job overhead (plan lookup, ctypes dispatch,
event accounting) dominates the actual stencil work.  SASA's hybrid
spatial parallelism shows many independent PE chains sharing one device;
this module adopts the software analogue — pack ``B`` grids that share
one ``(config, grid_shape, boundary)`` triple into a single contiguous
*slab* and drive the whole batch through one fused-driver call:

* :class:`BatchPlan` — the shared per-grid :class:`~repro.core.plan.
  PassPlan` plus the slab geometry (per-grid float offsets, one stride);
* :class:`BatchTables` — the driver-facing serialization: the per-grid
  :class:`~repro.core.plan.DriverTables` *unchanged*, extended only by
  ``(n_grids, grid_stride)``.  The C pool's atomic claim counter then
  ranges over ``n_grids * n_blocks`` flat ``(grid, block)`` units, so
  idle workers steal across grids as well as blocks — a batch of
  one-block grids still saturates every worker.  Lint rule P307 proves
  this flat unit space round-trips to the per-grid plans (bijective
  ``t -> (g, b)`` decomposition, non-overlapping grid offsets, tables
  byte-identical to the single-grid serialization);
* :class:`BatchResult` — per-grid outputs *and* per-grid typed errors,
  so one grid's injected SEU fails only that grid's request when the
  batch is split back into responses.

Bit-exactness versus per-grid runs holds by construction: the same
per-block code executes for every ``(grid, block)`` unit, grids occupy
disjoint slab ranges, and the accumulation chain is untouched — the
batch changes *scheduling*, never numerics (a tested invariant).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.core.blocking import BlockingConfig
from repro.core.plan import DriverTables, PassPlan, get_pass_plan
from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.accelerator import AcceleratorStats


@dataclass(frozen=True)
class BatchTables:
    """Driver tables for one batched pass: per-grid tables + slab layout.

    ``tables`` is byte-identical to what a single-grid pass would use —
    the batch extension is *only* the two extra scalars.  ``n_units``
    (= ``n_grids * n_blocks``) is the range of the pool's atomic claim
    counter; unit ``t`` executes block ``t % n_blocks`` of grid
    ``t // n_blocks`` at slab offset ``(t // n_blocks) * grid_stride``
    floats.
    """

    tables: DriverTables
    n_grids: int
    grid_stride: int

    @property
    def n_blocks(self) -> int:
        return int(self.tables.blocks.shape[0])

    @property
    def n_units(self) -> int:
        return self.n_grids * self.n_blocks

    def unit_to_grid_block(self, t: int) -> tuple[int, int]:
        """Decode flat claim-counter unit ``t`` — mirrors the C worker."""
        return t // self.n_blocks, t % self.n_blocks


class BatchPlan:
    """Slab geometry for ``n_grids`` same-shape grids sharing one plan.

    Construction validates the batch is well-formed (``n_grids >= 1``,
    shape valid for the config) and reuses the cached per-grid
    :class:`PassPlan`; the only new state is the slab layout.  The slab
    is C-contiguous of shape ``(n_grids,) + grid_shape``, so consecutive
    grids sit exactly ``grid_stride = prod(grid_shape)`` floats apart
    and per-grid views are themselves contiguous.
    """

    def __init__(
        self,
        config: BlockingConfig,
        grid_shape: tuple[int, ...],
        n_grids: int,
        boundary: str = "clamp",
    ):
        if n_grids < 1:
            raise ConfigurationError(
                f"n_grids must be >= 1, got {n_grids}",
                param="n_grids", value=n_grids, constraint="n_grids >= 1",
            )
        self.plan: PassPlan = get_pass_plan(config, grid_shape, boundary)
        self.config = config
        self.grid_shape = self.plan.grid_shape
        self.boundary = boundary
        self.n_grids = int(n_grids)
        stride = 1
        for extent in self.grid_shape:
            stride *= extent
        self.grid_stride = stride
        self.slab_shape = (self.n_grids,) + self.grid_shape

    # ------------------------------------------------------------------ #

    def offsets(self) -> tuple[int, ...]:
        """Per-grid float offset of each grid within the slab."""
        return tuple(g * self.grid_stride for g in range(self.n_grids))

    def pack(
        self, grids: Sequence[np.ndarray], out: np.ndarray | None = None
    ) -> np.ndarray:
        """Stack ``n_grids`` grids into one contiguous float32 slab.

        Validates count and shapes; the inputs are copied (the slab is
        the batch's working memory, callers keep their arrays) into
        ``out`` when given, else into a new slab.
        """
        if len(grids) != self.n_grids:
            raise ConfigurationError(
                f"batch expects {self.n_grids} grids, got {len(grids)}",
                param="grids", value=len(grids),
                constraint=f"len(grids) == n_grids ({self.n_grids})",
            )
        slab = np.empty(self.slab_shape, dtype=np.float32) if out is None else out
        for g, grid in enumerate(grids):
            if tuple(grid.shape) != self.grid_shape:
                raise ConfigurationError(
                    f"grid {g} has shape {tuple(grid.shape)}, batch is "
                    f"{self.grid_shape}",
                    param="grids", value=tuple(grid.shape),
                    constraint=f"every grid shape == {self.grid_shape}",
                )
            slab[g] = grid
        return slab

    def unpack(self, slab: np.ndarray) -> list[np.ndarray]:
        """Split a slab back into ``n_grids`` independent copies."""
        return [np.array(slab[g]) for g in range(self.n_grids)]

    def to_batch_tables(self, steps: int) -> BatchTables:
        """Serialize for the native driver's batched pass entry point."""
        return BatchTables(
            tables=self.plan.to_driver_tables(steps),
            n_grids=self.n_grids,
            grid_stride=self.grid_stride,
        )


@dataclass
class BatchResult:
    """Outcome of one :meth:`FPGAAccelerator.run_batch` call.

    ``outputs[g]`` is grid ``g``'s advanced state, or ``None`` when that
    grid failed; ``errors[g]`` holds the typed per-grid exception (fault
    detection, watchdog, exhausted rollbacks) or ``None``.  Failures are
    *per grid*: an SEU injected into one grid of an armed batch fails
    only that entry, the rest complete bit-exact.  ``stats`` aggregates
    the architectural counters over the whole batch (per-pass quantities
    scale by ``n_grids``).
    """

    outputs: list[np.ndarray | None]
    errors: list[Exception | None]
    stats: "AcceleratorStats"

    @property
    def ok(self) -> bool:
        return all(e is None for e in self.errors)

    @property
    def n_failed(self) -> int:
        return sum(1 for e in self.errors if e is not None)


__all__ = ["BatchPlan", "BatchTables", "BatchResult"]
