"""Batched execution of many small same-config grids.

The paper's pipelines are sized for a handful of large Table-III grids,
but user-scale traffic is the opposite regime: many *small* independent
grids where per-job overhead (plan lookup, ctypes dispatch, event
accounting) dominates the actual stencil work.  SASA's hybrid spatial
parallelism shows many independent PE chains sharing one device; the
software analogue is to stack ``B`` grids that share one
``(config, grid_shape, boundary)`` triple into a single C-contiguous
``(B, *grid_shape)`` *slab* and drive it through the accelerator's one
pass loop — the loop every run takes, a single grid being a one-grid
slab.  The native driver's claim counter then ranges over
``B * n_blocks`` ``(grid, block)`` units, so idle workers steal across
grids as well as blocks; lint rule P307 checks the slab layout the
driver is given (:func:`repro.core.native.slab_layout`).

* :class:`BatchPlan` — the shared per-grid :class:`~repro.core.plan.
  PassPlan` plus the slab shape, and :meth:`BatchPlan.pack`, which
  stacks separate grids into a new slab;
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
from repro.core.plan import PassPlan, get_pass_plan
from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.accelerator import AcceleratorStats


class BatchPlan:
    """Slab geometry for ``n_grids`` same-shape grids sharing one plan.

    Construction validates the batch is well-formed (``n_grids >= 1``,
    shape valid for the config) and reuses the cached per-grid
    :class:`PassPlan`; the only new state is the slab shape.  The slab
    is C-contiguous of shape ``(n_grids,) + grid_shape``, so consecutive
    grids sit exactly ``prod(grid_shape)`` floats apart and per-grid
    views are themselves contiguous.
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
        self.grid_shape = self.plan.grid_shape
        self.n_grids = int(n_grids)
        self.slab_shape = (self.n_grids,) + self.grid_shape

    def pack(self, grids: Sequence[np.ndarray]) -> np.ndarray:
        """Stack ``n_grids`` grids into a new contiguous float32 slab.

        Validates count and shapes; the inputs are copied (the slab is
        the batch's working memory, callers keep their arrays).
        """
        if len(grids) != self.n_grids:
            raise ConfigurationError(
                f"batch expects {self.n_grids} grids, got {len(grids)}",
                param="grids", value=len(grids),
                constraint=f"len(grids) == n_grids ({self.n_grids})",
            )
        slab = np.empty(self.slab_shape, dtype=np.float32)
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


__all__ = ["BatchPlan", "BatchResult"]
