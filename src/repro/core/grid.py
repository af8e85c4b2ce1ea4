"""Grid allocation and initialization helpers.

All engines operate on plain :class:`numpy.ndarray` objects in single
precision (the paper uses float32 throughout).  Array axes are ordered so
that **x is the last (contiguous) axis** — the dimension the paper
vectorizes — with y before it and, in 3D, the streamed z dimension first:
2D grids have shape ``(Ny, Nx)`` and 3D grids ``(Nz, Ny, Nx)``.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.errors import ConfigurationError

#: Recognized fill patterns for :func:`make_grid`.
PATTERNS = ("random", "constant", "impulse", "gradient", "mixed")


def make_grid(
    shape: Sequence[int],
    pattern: str = "random",
    *,
    seed: int = 0,
    dtype: np.dtype | type = np.float32,
    value: float = 1.0,
) -> np.ndarray:
    """Allocate and fill a grid.

    Parameters
    ----------
    shape:
        ``(Ny, Nx)`` for 2D or ``(Nz, Ny, Nx)`` for 3D.
    pattern:
        * ``random`` — uniform values in ``[0, 1)`` (seeded, reproducible);
        * ``constant`` — every cell equals ``value``;
        * ``impulse`` — zeros with ``value`` at the center cell;
        * ``gradient`` — normalized linear ramp along x;
        * ``mixed`` — ramp plus seeded noise, exercising both smooth and
          rough regions.
    seed:
        RNG seed for the random patterns.
    """
    shape = tuple(int(s) for s in shape)
    if len(shape) not in (2, 3):
        raise ConfigurationError(f"grid must be 2D or 3D, got shape {shape}")
    if any(s < 1 for s in shape):
        raise ConfigurationError(f"grid dimensions must be >= 1, got {shape}")

    if pattern == "constant":
        return np.full(shape, value, dtype=dtype)
    if pattern == "impulse":
        grid = np.zeros(shape, dtype=dtype)
        grid[tuple(s // 2 for s in shape)] = value
        return grid
    if pattern == "gradient":
        nx = shape[-1]
        ramp = np.linspace(0.0, 1.0, nx, dtype=np.float64)
        return np.broadcast_to(ramp, shape).astype(dtype)
    if pattern == "random":
        rng = np.random.default_rng(seed)
        return rng.random(shape, dtype=np.float32).astype(dtype, copy=False)
    if pattern == "mixed":
        rng = np.random.default_rng(seed)
        nx = shape[-1]
        ramp = np.linspace(0.0, 1.0, nx, dtype=np.float64)
        noise = rng.random(shape)
        return (0.5 * np.broadcast_to(ramp, shape) + 0.5 * noise).astype(dtype)
    raise ConfigurationError(f"unknown pattern {pattern!r}; expected one of {PATTERNS}")
