"""Star-shaped stencil specification (paper eq. 1 and Table I).

The paper's cell-update equation for a 3D star stencil of radius ``rad`` is::

    f[c]_(t+1) = cc * f[c]_t
               + sum_{i=1..rad} ( cw_i * f[west,i]  + ce_i * f[east,i]
                                + cs_i * f[south,i] + cn_i * f[north,i]
                                + cb_i * f[below,i] + ca_i * f[above,i] )

(The paper writes the sum as ``i = 0..rad`` but its own FLOP count,
``12 * rad + 1`` for 3D, corresponds to ``i = 1..rad``; radius-0 terms would
duplicate the center.)  The 2D variant drops the below/above directions.

Because the paper disallows floating-point reordering, coefficients are *not*
shared between neighbors even when numerically equal, so a cell update costs
``2 * ndirs * rad + 1`` FLOPs (``ndirs = 2 * dims``): one FMUL per term plus
one FADD per neighbor term.  A *shared-coefficient* mode (used by the related
work the paper compares against in §VI.C) is also provided: the FADD count is
unchanged but only one FMUL per distance ``i`` per axis pair is counted.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError

#: Bytes moved per cell update assuming full on-chip reuse: one 4-byte
#: single-precision read plus one 4-byte write (paper Table I).
BYTES_PER_CELL = 8


class Direction(enum.IntEnum):
    """Star-stencil directions in the paper's order (eq. 1).

    ``WEST``/``EAST`` step along x, ``SOUTH``/``NORTH`` along y and
    ``BELOW``/``ABOVE`` along z (3D only).
    """

    WEST = 0
    EAST = 1
    SOUTH = 2
    NORTH = 3
    BELOW = 4
    ABOVE = 5

    @property
    def axis_name(self) -> str:
        """The spatial axis the direction steps along: ``x``, ``y`` or ``z``."""
        return {0: "x", 1: "x", 2: "y", 3: "y", 4: "z", 5: "z"}[int(self)]

    @property
    def sign(self) -> int:
        """-1 for the negative-going direction of the axis, +1 otherwise."""
        return -1 if int(self) % 2 == 0 else 1


def directions_for(dims: int) -> tuple[Direction, ...]:
    """The directions of a star stencil in ``dims`` dimensions, paper order."""
    if dims == 2:
        return (Direction.WEST, Direction.EAST, Direction.SOUTH, Direction.NORTH)
    if dims == 3:
        return tuple(Direction)
    raise ConfigurationError(f"dims must be 2 or 3, got {dims}")


def _default_coefficients(dims: int, radius: int) -> tuple[float, np.ndarray]:
    """Deterministic, all-distinct, normalized default coefficients.

    All coefficients are distinct (the paper's worst case: no sharing
    possible) and sum to 1 so that a constant field is a fixed point of the
    update — a useful invariant for testing and for numerical stability of
    long runs.  Values are rounded to float32 before normalization so the
    normalized set is reproducible across platforms.
    """
    ndirs = 2 * dims
    # Distinct positive raw weights; neighbor weight decays with distance.
    raw = np.empty((ndirs, radius), dtype=np.float64)
    for d in range(ndirs):
        for i in range(radius):
            raw[d, i] = 1.0 / (2.0 + 0.25 * d + 1.5 * i)
    center_raw = 2.0
    total = center_raw + raw.sum()
    coeffs = (raw / total).astype(np.float32)
    # Recompute the center so the float32 coefficients sum to exactly ~1.
    center = np.float32(1.0) - coeffs.sum(dtype=np.float32)
    return float(center), coeffs


@dataclass(frozen=True)
class StencilSpec:
    """A star-shaped stencil: dimensionality, radius and coefficients.

    Parameters
    ----------
    dims:
        2 or 3.
    radius:
        Stencil radius (the paper equates radius and order); >= 1.
    center:
        Coefficient of the center cell (``cc`` in eq. 1).
    coefficients:
        Array of shape ``(2 * dims, radius)``; ``coefficients[d, i - 1]`` is
        the coefficient of the ``i``-th neighbor in :class:`Direction` ``d``.
    shared_coefficients:
        If true, FLOP accounting assumes neighbors at the same distance share
        a coefficient (the convention of [10, 18, 19]); numerics is unchanged.
    """

    dims: int
    radius: int
    center: float
    coefficients: np.ndarray = field(repr=False)
    shared_coefficients: bool = False

    def __post_init__(self) -> None:
        if self.dims not in (2, 3):
            raise ConfigurationError(f"dims must be 2 or 3, got {self.dims}")
        if self.radius < 1:
            raise ConfigurationError(f"radius must be >= 1, got {self.radius}")
        coeffs = np.asarray(self.coefficients, dtype=np.float32)
        expected = (2 * self.dims, self.radius)
        if coeffs.shape != expected:
            raise ConfigurationError(
                f"coefficients must have shape {expected}, got {coeffs.shape}"
            )
        object.__setattr__(self, "coefficients", coeffs)
        coeffs.setflags(write=False)

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def star(
        cls,
        dims: int,
        radius: int,
        *,
        shared_coefficients: bool = False,
    ) -> "StencilSpec":
        """Canonical star stencil with distinct, normalized coefficients."""
        center, coeffs = _default_coefficients(dims, radius)
        return cls(
            dims=dims,
            radius=radius,
            center=center,
            coefficients=coeffs,
            shared_coefficients=shared_coefficients,
        )

    @classmethod
    def from_axis_coefficients(
        cls,
        dims: int,
        axis_coeffs: np.ndarray,
        center: float,
    ) -> "StencilSpec":
        """Build a symmetric stencil from per-axis, per-distance coefficients.

        ``axis_coeffs`` has shape ``(dims, radius)``; both directions of an
        axis get the same coefficient (the typical finite-difference case).
        The resulting spec uses ``shared_coefficients=True`` accounting.
        """
        axis_coeffs = np.asarray(axis_coeffs, dtype=np.float32)
        if axis_coeffs.ndim != 2 or axis_coeffs.shape[0] != dims:
            raise ConfigurationError(
                f"axis_coeffs must have shape (dims, radius), got {axis_coeffs.shape}"
            )
        radius = axis_coeffs.shape[1]
        coeffs = np.repeat(axis_coeffs, 2, axis=0)
        return cls(
            dims=dims,
            radius=radius,
            center=float(center),
            coefficients=coeffs,
            shared_coefficients=True,
        )

    # ------------------------------------------------------------------ #
    # structural properties
    # ------------------------------------------------------------------ #

    @property
    def directions(self) -> tuple[Direction, ...]:
        """Directions in the paper's accumulation order."""
        return directions_for(self.dims)

    @property
    def ndirs(self) -> int:
        """Number of star directions: ``2 * dims``."""
        return 2 * self.dims

    @property
    def npoints(self) -> int:
        """Number of cells read per update: center + ndirs * radius."""
        return 1 + self.ndirs * self.radius

    def coefficient(self, direction: Direction, distance: int) -> float:
        """Coefficient of the neighbor at ``distance`` (1-based) in ``direction``."""
        if not 1 <= distance <= self.radius:
            raise ConfigurationError(
                f"distance must be in [1, {self.radius}], got {distance}"
            )
        return float(self.coefficients[int(direction), distance - 1])

    def offsets(self) -> list[tuple[Direction, int]]:
        """All (direction, distance) neighbor terms in accumulation order.

        The order is the paper's: for each distance ``i = 1..rad``, the
        directions W, E, S, N (, B, A).  Both the reference engine and the
        accelerator simulator accumulate in exactly this order, which is what
        makes them bit-identical in float32.
        """
        return [
            (d, i)
            for i in range(1, self.radius + 1)
            for d in self.directions
        ]

    # ------------------------------------------------------------------ #
    # Table I characteristics
    # ------------------------------------------------------------------ #

    @property
    def fmul_per_cell(self) -> int:
        """Floating-point multiplications per cell update.

        Unshared (paper §IV.A): ``ndirs * rad + 1``.  Shared: one FMUL per
        distance per axis plus the center -> ``dims * rad + 1``.
        """
        if self.shared_coefficients:
            return self.dims * self.radius + 1
        return self.ndirs * self.radius + 1

    @property
    def fadd_per_cell(self) -> int:
        """Floating-point additions per cell update: ``ndirs * rad``."""
        return self.ndirs * self.radius

    @property
    def flops_per_cell(self) -> int:
        """Total FLOPs per cell update (Table I: ``4*rad*2+1`` 2D, ``12*rad+1`` 3D)."""
        return self.fmul_per_cell + self.fadd_per_cell

    @property
    def bytes_per_cell(self) -> int:
        """Bytes per cell update with full spatial reuse (Table I: always 8)."""
        return BYTES_PER_CELL

    @property
    def flop_per_byte(self) -> float:
        """Arithmetic intensity (Table I's FLOP/Byte column)."""
        return self.flops_per_cell / self.bytes_per_cell

    # ------------------------------------------------------------------ #
    # misc
    # ------------------------------------------------------------------ #

    def coefficient_sum(self) -> float:
        """Sum of all coefficients including the center (float32 accumulation)."""
        return float(
            np.float32(self.center) + self.coefficients.sum(dtype=np.float32)
        )

    def describe(self) -> str:
        """One-line human-readable description."""
        mode = "shared" if self.shared_coefficients else "distinct"
        return (
            f"{self.dims}D star stencil, radius {self.radius} "
            f"({self.flops_per_cell} FLOP/cell, {self.bytes_per_cell} B/cell, "
            f"{mode} coefficients)"
        )


def spec_key(spec: StencilSpec) -> tuple:
    """Hashable numeric identity of a stencil: ``(dims, radius, center,
    coefficient bytes)``, the arithmetic every engine computes.

    The center is taken as float32, the value the native driver compiles
    in.  A spec is frozen and its coefficients read-only, so the key is
    built on first use and kept on the spec.
    """
    key = spec.__dict__.get("_key")
    if key is None:
        key = (
            spec.dims,
            spec.radius,
            float(np.float32(spec.center)),
            spec.coefficients.tobytes(),
        )
        object.__setattr__(spec, "_key", key)
    return key
