"""Precomputed, reusable pass plans for the functional simulator.

The accelerator's dataflow is fixed for a given ``(config, grid_shape,
boundary)`` triple: which blocks exist, which cells each block gathers
(including the clamped or wrapped halo), how the per-stage update window
shrinks along the PE chain, and where the compute region lands in the
output grid.  The original simulator re-derived all of that *per pass*
(and re-padded every block per PE stage); StencilFlow and SASA instead
treat the dataflow graph as a schedule computed once and executed many
times.  This module adopts the same plan-once/execute-many structure:

* :class:`BlockPlan` — per-block geometry: the local footprint, the
  gather *segments* (runs of contiguous or constant source indices, so
  the read kernel is plain slice copies instead of fancy indexing), the
  clamp-duplicate counts, and the write/read slices of the write kernel.
* :class:`PassPlan` — the ordered block plans plus per-pass accounting
  and a lazily-cached table of per-stage shrink windows per ``steps``
  value (a run uses at most two: ``partime`` and the final remainder).
* :func:`get_pass_plan` — module-level LRU cache keyed on the hashable
  ``(config, grid_shape, boundary)`` triple, so repeated runs (and the
  many passes within one run) pay the derivation cost exactly once.

Plans are immutable after construction and hold no scratch state, so one
plan can be shared by concurrent block workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.core.blocking import Block, BlockDecomposition, BlockingConfig
from repro.errors import ConfigurationError

#: int64 fields per block record in :meth:`PassPlan.to_driver_tables`,
#: by dimensionality.  The layouts are consumed verbatim by the
#: generated C pass driver (:mod:`repro.core.native`) and proven
#: round-trip-exact by lint rule P306.
#:
#: 2D: ``n0, nx, dup_lo_x, dup_hi_x, write_x, cwidth_x, read_x,
#: seg_off_x, seg_cnt_x``
#:
#: 3D: ``n0, ny, nx, dup_lo_y, dup_hi_y, dup_lo_x, dup_hi_x, write_y,
#: write_x, cwidth_y, cwidth_x, read_y, read_x, seg_off_y, seg_cnt_y,
#: seg_off_x, seg_cnt_x``
DRIVER_RECORD_LEN = {2: 9, 3: 17}

#: Per-axis (lo, hi) local window bounds (re-exported shape of pe.Window).
Window = tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class Segment:
    """One gather run along a blocked axis.

    Copies ``src[src_start:src_stop]`` into ``dst[dst_start:dst_stop]``;
    when ``src_stop - src_start == 1`` and the destination is wider the
    run is a clamp duplicate and broadcasts (NumPy length-1 broadcast).
    """

    dst_start: int
    dst_stop: int
    src_start: int
    src_stop: int

    @property
    def dst_slice(self) -> slice:
        return slice(self.dst_start, self.dst_stop)

    @property
    def src_slice(self) -> slice:
        return slice(self.src_start, self.src_stop)


def _segments_of(index_array: np.ndarray) -> tuple[Segment, ...]:
    """Decompose a gather index array into contiguous / constant runs.

    Clamped index arrays are (constant, ascending, constant); wrapped
    (periodic) arrays are up to a few ascending runs that restart at 0.
    The generic run-length decomposition handles both — and degenerate
    cases such as a grid extent of 1 (a single constant run).
    """
    idx = [int(v) for v in index_array]
    n = len(idx)
    segments: list[Segment] = []
    i = 0
    while i < n:
        j = i + 1
        if j < n and idx[j] == idx[i] + 1:
            while j < n and idx[j] == idx[j - 1] + 1:
                j += 1
            segments.append(Segment(i, j, idx[i], idx[i] + (j - i)))
        else:
            while j < n and idx[j] == idx[i]:
                j += 1
            segments.append(Segment(i, j, idx[i], idx[i] + 1))
        i = j
    return tuple(segments)


@dataclass(frozen=True)
class BlockPlan:
    """Cached geometry of one spatial block within a pass.

    ``footprint`` is the local shape of the gathered block (streamed axis
    first); ``index_arrays``/``segments`` describe the read kernel per
    blocked axis; ``dup_lo``/``dup_hi`` are the clamp-duplicate counts the
    PE chain must refresh between stages (all zero under periodic
    boundaries, where wrapped halo cells are real data); ``write_sl`` /
    ``read_sl`` are the write kernel's output/local slices.
    """

    block: Block
    footprint: tuple[int, ...]
    index_arrays: tuple[np.ndarray, ...]
    segments: tuple[tuple[Segment, ...], ...]
    dup_lo: tuple[int, ...]
    dup_hi: tuple[int, ...]
    write_sl: tuple[slice, ...]
    read_sl: tuple[slice, ...]

    def gather_into(self, src: np.ndarray, dst: np.ndarray) -> None:
        """Read kernel: fill ``dst`` (the local footprint) from ``src``.

        Pure slice copies (each segment is contiguous in the source, or a
        broadcast length-1 clamp duplicate) — no fancy-indexing gather
        allocation, no intermediate copy.
        """
        if src.ndim == 2:
            (segs_x,) = self.segments
            for sx in segs_x:
                dst[:, sx.dst_slice] = src[:, sx.src_slice]
        else:
            segs_y, segs_x = self.segments
            for sy in segs_y:
                for sx in segs_x:
                    dst[:, sy.dst_slice, sx.dst_slice] = src[
                        :, sy.src_slice, sx.src_slice
                    ]


@dataclass(frozen=True)
class DriverTables:
    """Flat, C-consumable serialization of a :class:`PassPlan`.

    Everything the generated native pass driver needs to execute one
    full pass — block geometry, gather segments, per-stage windows — as
    contiguous ``int64`` arrays (see :data:`DRIVER_RECORD_LEN` for the
    per-block record layout).  ``windows`` has shape ``(n_blocks, steps,
    dims, 2)``; ``segments`` is ``(total_segments, 4)`` rows of
    ``(dst_start, dst_stop, src_start, src_stop)``.  ``scratch_floats``
    is the float32 capacity of *one* padded block buffer (max footprint
    plus ``2 * radius`` streamed-axis pad slabs); the driver ping-pongs
    between two such buffers per worker.  Lint rule P306 proves these
    tables decode back to exactly the plan's Python-side geometry.
    """

    blocks: np.ndarray
    segments: np.ndarray
    windows: np.ndarray
    steps: int
    scratch_floats: int
    #: Vector width the tables were built for:
    #: ``vector_width_for(config.parvec)`` (1 = no padding).  The
    #: compiled driver has no width of its own — each pass passes this
    #: field to it — so the row stride the C derives and the scratch
    #: sized here always agree.  When > 1 the block buffers' x stride
    #: is padded to a multiple of this width, the padding is folded
    #: into ``scratch_floats``, and the alignment invariants below hold
    #: (asserted at build time, re-proved by lint rule P306 without
    #: executing a pass).
    vector_width: int = 1
    #: Upper bound on any block's padded x stride (== the scalar max x
    #: footprint when ``vector_width == 1``).  The generated C re-derives
    #: each block's own stride as ``roundup(nx, vector_width)``; this
    #: bound sizes the scratch.
    padded_x: int = 0


class PassPlan:
    """Execution plan for one pass of the accelerator over a fixed grid.

    Constructed once per ``(config, grid_shape, boundary)`` (use
    :func:`get_pass_plan` for the cached factory) and reused by every
    pass of every run with that geometry.  Alongside the block plans it
    precomputes the per-pass accounting totals the stats object needs, so
    executing a pass never re-walks the decomposition.
    """

    def __init__(
        self,
        config: BlockingConfig,
        grid_shape: tuple[int, ...],
        boundary: str = "clamp",
    ):
        self.config = config
        self.grid_shape = tuple(int(s) for s in grid_shape)
        self.boundary = boundary
        self.decomp = BlockDecomposition(config, self.grid_shape)
        self.periodic = boundary == "periodic"
        halo = config.halo
        ndim = config.dims
        blocked_axes = config.blocked_axes
        extents = [self.grid_shape[ax] for ax in blocked_axes]
        stream_extent = self.grid_shape[config.streamed_axis]

        blocks: list[BlockPlan] = []
        for block in self.decomp:
            index_arrays: list[np.ndarray] = []
            dup_lo: list[int] = []
            dup_hi: list[int] = []
            for (start, stop), extent in zip(
                zip(block.starts, block.stops), extents
            ):
                raw = np.arange(start - halo, stop + halo)
                if self.periodic:
                    # wrapped halo cells are *real* data: no duplicates,
                    # no window pinning at the grid border
                    index_arrays.append(np.mod(raw, extent))
                    dup_lo.append(0)
                    dup_hi.append(0)
                else:
                    index_arrays.append(np.clip(raw, 0, extent - 1))
                    dup_lo.append(max(0, -(start - halo)))
                    dup_hi.append(max(0, (stop + halo) - extent))
            footprint = (stream_extent,) + tuple(
                len(ix) for ix in index_arrays
            )
            write_sl = [slice(None)] * ndim
            read_sl = [slice(None)] * ndim
            for local_axis, axis in enumerate(blocked_axes):
                start, stop = block.starts[local_axis], block.stops[local_axis]
                write_sl[axis] = slice(start, stop)
                read_sl[axis] = slice(halo, halo + (stop - start))
            blocks.append(
                BlockPlan(
                    block=block,
                    footprint=footprint,
                    index_arrays=tuple(index_arrays),
                    segments=tuple(
                        _segments_of(ix) for ix in index_arrays
                    ),
                    dup_lo=tuple(dup_lo),
                    dup_hi=tuple(dup_hi),
                    write_sl=tuple(write_sl),
                    read_sl=tuple(read_sl),
                )
            )
        self.blocks: tuple[BlockPlan, ...] = tuple(blocks)
        self._extents = extents

        #: Largest local footprint over all blocks — sizes the scratch
        #: buffers (partial edge blocks have smaller footprints).
        self.max_footprint: tuple[int, ...] = tuple(
            max(bp.footprint[ax] for bp in self.blocks)
            for ax in range(ndim)
        )

        # per-pass accounting, precomputed once
        self.cells_written_per_pass = self.decomp.cells_written_per_pass()
        self.cells_processed_per_pass = self.decomp.cells_processed_per_pass()
        self.vector_ops_per_pass = -(
            -self.cells_processed_per_pass // config.parvec
        )

        self._windows: dict[int, tuple[tuple[Window, ...], ...]] = {}
        self._driver_tables: dict[tuple[int, int], DriverTables] = {}

    # ------------------------------------------------------------------ #

    def to_driver_tables(
        self, steps: int, vector_width: int = 1
    ) -> DriverTables:
        """Serialize the plan for the generated native pass driver.

        Flattens every block's geometry (footprint, clamp-duplicate
        counts, write/read offsets, gather-segment ranges) plus the
        per-stage shrink windows for a ``steps``-pass into the int64
        arrays of :class:`DriverTables` — the entire pass description
        crosses the ctypes boundary once, as three pointers.  Cached per
        ``(steps, vector_width)`` (a run needs at most two tables, like
        :meth:`windows`).

        ``vector_width > 1`` builds tables for the *vectorized* driver:
        each block buffer's x stride is padded to a multiple of the
        width, so every row of the ping-pong scratch buffers starts on a
        vector boundary.  The padding is a pure layout change — the
        extra lanes are never read by a stencil term (the windows stay
        inside the unpadded footprint) — and the resulting alignment
        invariants are asserted here, at table-build time, rather than
        discovered as a fault inside native code.
        """
        if vector_width < 1 or vector_width & (vector_width - 1):
            raise ConfigurationError(
                f"vector_width must be a power of two >= 1, "
                f"got {vector_width}",
                param="vector_width",
                value=vector_width,
                constraint="vector_width in (1, 2, 4, 8, 16, ...)",
            )
        cached = self._driver_tables.get((steps, vector_width))
        if cached is not None:
            return cached
        ndim = self.config.dims
        rad = self.config.radius
        rec_len = DRIVER_RECORD_LEN[ndim]
        n_blocks = len(self.blocks)
        block_tab = np.zeros((n_blocks, rec_len), dtype=np.int64)
        seg_rows: list[tuple[int, int, int, int]] = []
        for i, bp in enumerate(self.blocks):
            seg_ranges: list[tuple[int, int]] = []
            for axis_segs in bp.segments:
                off = len(seg_rows)
                for s in axis_segs:
                    seg_rows.append(
                        (s.dst_start, s.dst_stop, s.src_start, s.src_stop)
                    )
                seg_ranges.append((off, len(axis_segs)))
            rec = list(bp.footprint)
            for local_axis in range(ndim - 1):
                rec += [bp.dup_lo[local_axis], bp.dup_hi[local_axis]]
            for axis in self.config.blocked_axes:
                rec.append(bp.write_sl[axis].start)
            for axis in self.config.blocked_axes:
                rec.append(bp.write_sl[axis].stop - bp.write_sl[axis].start)
            for axis in self.config.blocked_axes:
                rec.append(bp.read_sl[axis].start)
            for off, cnt in seg_ranges:
                rec += [off, cnt]
            block_tab[i] = rec
        windows = np.asarray(self.windows(steps), dtype=np.int64)
        windows = np.ascontiguousarray(
            windows.reshape(n_blocks, steps, ndim, 2)
        )
        segments = np.asarray(seg_rows, dtype=np.int64).reshape(-1, 4)
        vec = int(vector_width)
        padded_x = -(-self.max_footprint[-1] // vec) * vec
        scratch = self.max_footprint[0] + 2 * rad
        for extent in self.max_footprint[1:-1]:
            scratch *= extent
        scratch *= padded_x
        # Keep per-worker ping/pong bases on (at least) 64-byte
        # boundaries when the allocator hands us a 64-byte-aligned base:
        # worker w's buffers start at multiples of scratch_floats, so
        # rounding the capacity itself up to 16 floats preserves the
        # base alignment for every worker, at every vector width.
        unit = max(vec, 16)
        scratch = -(-scratch // unit) * unit
        # ---- table-build-time alignment assertions (lint P306 re-proves
        # these from first principles without executing a pass) ----
        if padded_x < self.max_footprint[-1] or padded_x % vec:
            raise ConfigurationError(
                f"padded x stride {padded_x} does not cover footprint "
                f"{self.max_footprint[-1]} in whole vectors",
                param="padded_x",
                value=padded_x,
                constraint="padded_x = roundup(max_nx, vector_width)",
            )
        if scratch % vec:
            raise ConfigurationError(
                f"scratch capacity {scratch} is not a multiple of the "
                f"vector width {vec}",
                param="scratch_floats",
                value=scratch,
                constraint="scratch_floats % vector_width == 0",
            )
        tables = DriverTables(
            blocks=block_tab,
            segments=np.ascontiguousarray(segments),
            windows=windows,
            steps=steps,
            scratch_floats=int(scratch),
            vector_width=vec,
            padded_x=int(padded_x),
        )
        self._driver_tables[(steps, vec)] = tables
        return tables

    def windows(self, steps: int) -> tuple[tuple[Window, ...], ...]:
        """Per-block tuple of per-stage update windows for a ``steps``-pass.

        ``result[block_index][s - 1]`` is the local window at chain stage
        ``s`` (1-based).  Along blocked axes the window shrinks by
        ``radius`` per remaining stage relative to the read footprint; at
        global borders under clamp it pins to the border (the clamp
        boundary condition makes border cells computable at every stage).
        Along the streamed axis it spans the full extent.  The shrink
        schedule guarantees that every neighbor read at stage ``s`` lands
        inside the stage ``s - 1`` window (or in the refreshed clamp
        duplicates) — the overlapped-blocking correctness invariant.

        Cached per ``steps``: a run needs at most two tables (full passes
        and the final-remainder pass).
        """
        cached = self._windows.get(steps)
        if cached is not None:
            return cached
        rad = self.config.radius
        halo = self.config.halo
        table: list[tuple[Window, ...]] = []
        for bp in self.blocks:
            per_stage: list[Window] = []
            for s in range(1, steps + 1):
                remaining = (steps - s) * rad
                window: list[tuple[int, int]] = [(0, bp.footprint[0])]
                for local_axis, extent in enumerate(self._extents):
                    start = bp.block.starts[local_axis]
                    stop = bp.block.stops[local_axis]
                    if self.periodic:
                        # wrapped halos are real data: the window shrinks
                        # on both sides like an interior block, never
                        # pinning to a border
                        lo_global = start - remaining
                        hi_global = stop + remaining
                    else:
                        lo_global = max(0, start - remaining)
                        hi_global = min(extent, stop + remaining)
                    base = start - halo  # local index 0 maps here
                    window.append((lo_global - base, hi_global - base))
                per_stage.append(tuple(window))
            table.append(tuple(per_stage))
        result = tuple(table)
        self._windows[steps] = result
        return result


@lru_cache(maxsize=128)
def _cached_plan(
    config: BlockingConfig, grid_shape: tuple[int, ...], boundary: str
) -> PassPlan:
    return PassPlan(config, grid_shape, boundary)


def get_pass_plan(
    config: BlockingConfig,
    grid_shape: tuple[int, ...],
    boundary: str = "clamp",
) -> PassPlan:
    """The cached :class:`PassPlan` for a geometry triple.

    ``BlockingConfig`` is a frozen dataclass and therefore hashable; the
    same triple always returns the same plan object (LRU, 128 entries).
    """
    return _cached_plan(config, tuple(int(s) for s in grid_shape), boundary)
