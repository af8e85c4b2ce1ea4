"""Combined spatial/temporal blocking geometry (paper §III, eq. 2).

The paper uses 1.5D blocking for 2D stencils (block x, stream y) and 2.5D
blocking for 3D stencils (block x and y, stream z), plus temporal blocking
through a chain of ``partime`` PEs with *overlapped* blocks: each spatial
block is read with a halo of ``partime * rad`` cells on every blocked side,
and after ``partime`` time steps only the ``csize`` interior is written
back (eq. 2: ``csize = bsize - 2 * partime * rad``).  The halo cells are
computed redundantly by adjacent blocks, which removes any need to
synchronize halo data between PEs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class BlockingConfig:
    """Performance-knob configuration of the accelerator.

    Parameters
    ----------
    dims:
        2 or 3 (must match the stencil's).
    radius:
        Stencil radius (parameterized at compile time in the paper's kernel).
    bsize_x:
        Spatial block size along x; must be a multiple of ``parvec``.
    bsize_y:
        Spatial block size along y (3D only; ``None`` for 2D).
    parvec:
        Vector width — consecutive x cells updated per cycle.
    partime:
        Degree of temporal parallelism — number of chained PEs.

    Functional validity only requires positive ``csize`` (eq. 2); the
    *performance* constraints of §V.A (eq. 5: ``partime * parvec <=
    par_total``; eq. 6: ``(partime * rad) mod 4 == 0``; even ``parvec``)
    are enforced by :mod:`repro.models.tuner`, not here, so that the
    functional simulator can be exercised on arbitrary configurations.
    """

    dims: int
    radius: int
    bsize_x: int
    parvec: int = 1
    partime: int = 1
    bsize_y: int | None = None

    def __post_init__(self) -> None:
        if self.dims not in (2, 3):
            raise ConfigurationError(
                f"dims must be 2 or 3, got {self.dims}",
                param="dims", value=self.dims, constraint="dims in (2, 3)",
            )
        if self.radius < 1:
            raise ConfigurationError(
                f"radius must be >= 1, got {self.radius}",
                param="radius", value=self.radius, constraint="radius >= 1",
            )
        if self.partime < 1:
            raise ConfigurationError(
                f"partime must be >= 1, got {self.partime}",
                param="partime", value=self.partime, constraint="partime >= 1",
            )
        if self.parvec < 1:
            raise ConfigurationError(
                f"parvec must be >= 1, got {self.parvec}",
                param="parvec", value=self.parvec, constraint="parvec >= 1",
            )
        if self.bsize_x < 1:
            raise ConfigurationError(
                f"bsize_x must be >= 1, got {self.bsize_x}",
                param="bsize_x", value=self.bsize_x, constraint="bsize_x >= 1",
            )
        if self.bsize_x % self.parvec != 0:
            raise ConfigurationError(
                f"bsize_x ({self.bsize_x}) must be a multiple of parvec ({self.parvec})",
                param="bsize_x", value=self.bsize_x,
                constraint=f"bsize_x % parvec == 0 (parvec={self.parvec})",
            )
        if self.dims == 3:
            if self.bsize_y is None:
                raise ConfigurationError(
                    "bsize_y is required for 3D configurations",
                    param="bsize_y", value=None, constraint="3D requires bsize_y",
                )
            if self.bsize_y < 1:
                raise ConfigurationError(
                    f"bsize_y must be >= 1, got {self.bsize_y}",
                    param="bsize_y", value=self.bsize_y, constraint="bsize_y >= 1",
                )
        elif self.bsize_y is not None:
            raise ConfigurationError(
                "bsize_y must be None for 2D configurations",
                param="bsize_y", value=self.bsize_y, constraint="2D forbids bsize_y",
            )
        for name, csize in zip(("csize_x", "csize_y"), self.csize):
            if csize < 1:
                raise ConfigurationError(
                    f"{name} = bsize - 2*partime*rad = {csize} must be >= 1 "
                    f"(bsize too small for partime={self.partime}, rad={self.radius})",
                    param=name, value=csize,
                    constraint="bsize > 2 * partime * radius (eq. 2)",
                )

    # ------------------------------------------------------------------ #

    @property
    def halo(self) -> int:
        """Overlapped-blocking halo width per blocked side: ``partime * rad``."""
        return self.partime * self.radius

    @property
    def bsize(self) -> tuple[int, ...]:
        """Block size per blocked axis, array order: (x,) in 2D, (y, x) in 3D."""
        if self.dims == 2:
            return (self.bsize_x,)
        return (int(self.bsize_y), self.bsize_x)  # type: ignore[arg-type]

    @property
    def csize(self) -> tuple[int, ...]:
        """Compute-block size per blocked axis (eq. 2)."""
        return tuple(b - 2 * self.halo for b in self.bsize)

    @property
    def blocked_axes(self) -> tuple[int, ...]:
        """Indices of the blocked axes in grid-array order."""
        return (1,) if self.dims == 2 else (1, 2)

    @property
    def streamed_axis(self) -> int:
        """Index of the streamed axis (y in 2D, z in 3D): always axis 0."""
        return 0

    def num_blocks(self, grid_shape: tuple[int, ...]) -> tuple[int, ...]:
        """Number of spatial blocks per blocked axis for a grid shape."""
        self._check_shape(grid_shape)
        return tuple(
            math.ceil(grid_shape[axis] / cs)
            for axis, cs in zip(self.blocked_axes, self.csize)
        )

    def passes(self, iterations: int) -> int:
        """Number of passes through the PE chain: ``ceil(iters / partime)``."""
        if iterations < 0:
            raise ConfigurationError(
                f"iterations must be >= 0, got {iterations}",
                param="iterations", value=iterations, constraint="iterations >= 0",
            )
        return math.ceil(iterations / self.partime)

    def served_passes(self, iterations: int) -> list[tuple[int, int]]:
        """``(steps, count)`` of the passes a run of ``iterations`` serves.

        ``iterations // partime`` full passes, then one tail pass of the
        remainder when ``partime`` does not divide ``iterations`` — the
        order the accelerator executes them in.
        """
        if iterations < 0:
            raise ConfigurationError(
                f"iterations must be >= 0, got {iterations}",
                param="iterations", value=iterations, constraint="iterations >= 0",
            )
        full, tail = divmod(iterations, self.partime)
        return [(s, n) for s, n in ((self.partime, full), (tail, 1)) if s and n]

    def aligned_input_size(self, requested: int, axis: str = "x") -> int:
        """Round ``requested`` up to a multiple of csize for a blocked axis.

        The paper sets input dimensions to multiples of the compute-block
        size to avoid redundant computation in the last block (§IV.C).

        ``axis`` names the blocked axis (``"x"`` or, in 3D, ``"y"``) —
        named rather than indexed because :attr:`csize` is ordered
        ``(y, x)`` in 3D, where a bare index ``0`` reads as x but means y.
        """
        if axis == "x":
            cs = self.csize[-1]
        elif axis == "y" and self.dims == 3:
            cs = self.csize[0]
        else:
            raise ConfigurationError(
                f"axis must be 'x' or (3D only) 'y', got {axis!r} "
                f"for a {self.dims}D config",
                param="axis", value=axis,
                constraint="axis in ('x', 'y'); 'y' only for 3D",
            )
        return math.ceil(requested / cs) * cs

    def aligned_shape(self, requested: tuple[int, ...]) -> tuple[int, ...]:
        """Round a grid shape up to §IV.C-aligned blocked extents.

        Blocked extents become csize multiples (so the last block is
        never partial); the streamed extent is returned unchanged (the
        hardware streams any length).  ``requested`` is in grid-array
        order: ``(y, x)`` in 2D, ``(z, y, x)`` in 3D.
        """
        self._check_shape(requested)
        shape = list(int(s) for s in requested)
        shape[-1] = self.aligned_input_size(shape[-1], "x")
        if self.dims == 3:
            shape[1] = self.aligned_input_size(shape[1], "y")
        return tuple(shape)

    def _check_shape(self, grid_shape: tuple[int, ...]) -> None:
        if len(grid_shape) != self.dims:
            raise ConfigurationError(
                f"grid is {len(grid_shape)}D but config is {self.dims}D",
                param="grid_shape", value=tuple(grid_shape),
                constraint=f"len(grid_shape) == dims ({self.dims})",
            )
        if any(int(s) < 1 for s in grid_shape):
            raise ConfigurationError(
                f"grid shape {tuple(grid_shape)} has a zero/negative extent",
                param="grid_shape", value=tuple(grid_shape),
                constraint="every grid extent must be >= 1",
            )


@dataclass(frozen=True)
class Block:
    """One spatial block: per blocked axis, the compute interval.

    ``start``/``stop`` are the grid-coordinate bounds of the *written*
    (compute) region along each blocked axis; the *read* region extends a
    further ``halo`` on each side, clipped (clamped) at the grid border.
    """

    starts: tuple[int, ...]
    stops: tuple[int, ...]

    def compute_cells(self, stream_extent: int) -> int:
        """Number of cells this block writes back (per full pass)."""
        n = stream_extent
        for lo, hi in zip(self.starts, self.stops):
            n *= hi - lo
        return n


class BlockDecomposition:
    """Decomposition of a grid into overlapped spatial blocks.

    Iterating yields :class:`Block` objects in the streaming order of the
    hardware (x-major within y for 3D, matching the paper's read kernel).
    """

    def __init__(self, config: BlockingConfig, grid_shape: tuple[int, ...]):
        config._check_shape(grid_shape)
        self.config = config
        self.grid_shape = tuple(int(s) for s in grid_shape)
        self._starts_per_axis: list[list[int]] = []
        for axis, cs in zip(config.blocked_axes, config.csize):
            extent = self.grid_shape[axis]
            self._starts_per_axis.append(list(range(0, extent, cs)))

    def __len__(self) -> int:
        n = 1
        for starts in self._starts_per_axis:
            n *= len(starts)
        return n

    def __iter__(self):
        config = self.config
        if config.dims == 2:
            (nx,) = (self.grid_shape[1],)
            (cs_x,) = config.csize
            for sx in self._starts_per_axis[0]:
                yield Block((sx,), (min(sx + cs_x, nx),))
        else:
            ny, nx = self.grid_shape[1], self.grid_shape[2]
            cs_y, cs_x = config.csize
            for sy in self._starts_per_axis[0]:
                for sx in self._starts_per_axis[1]:
                    yield Block((sy, sx), (min(sy + cs_y, ny), min(sx + cs_x, nx)))

    # ------------------------------------------------------------------ #
    # accounting (used by the performance model and the stats object)
    # ------------------------------------------------------------------ #

    @property
    def stream_extent(self) -> int:
        """Extent of the streamed dimension."""
        return self.grid_shape[self.config.streamed_axis]

    def cells_written_per_pass(self) -> int:
        """Cells written back per pass — exactly the grid size."""
        return int(sum(b.compute_cells(self.stream_extent) for b in self))

    def cells_processed_per_pass(self) -> int:
        """Cells entering the PE chain per pass, including overlapped halos.

        Each block is read at its full ``bsize`` extent per blocked axis
        (clamped reads at the border still occupy pipeline slots, as in the
        hardware where the block footprint is fixed at compile time).
        """
        config = self.config
        per_block = self.stream_extent
        for b in config.bsize:
            per_block *= b
        return per_block * len(self)

    def model_cells_per_pass(self) -> int:
        """Pipeline-slot accounting used by the performance model of [8].

        Counts each inter-block overlap region once and truncates halos at
        the grid edge: per blocked axis the modeled extent is
        ``N + (nblocks - 1) * halo`` (adjacent blocks' reads overlap in
        stream order, so the pipeline services the shared region once).
        This reconstruction reproduces the paper's "Estimated Performance"
        column within ~3 % (see EXPERIMENTS.md); the physically re-read
        footprint is :meth:`cells_processed_per_pass`.
        """
        halo = self.config.halo
        total = self.stream_extent
        for axis, starts in zip(self.config.blocked_axes, self._starts_per_axis):
            extent = self.grid_shape[axis]
            total *= extent + (len(starts) - 1) * halo
        return total

    def redundancy_ratio(self) -> float:
        """Processed cells / written cells per pass (>= 1)."""
        return self.cells_processed_per_pass() / self.cells_written_per_pass()
