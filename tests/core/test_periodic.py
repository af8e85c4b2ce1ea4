"""Tests for the periodic-boundary extension across all engines.

The paper's hardware uses clamp boundaries only; periodic wrap-around is
an extension feature (DESIGN.md) useful for spectral-style benchmarks.
The contract is the same as for clamp: every engine bit-identical to the
reference.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    BlockingConfig,
    FPGAAccelerator,
    StencilSpec,
    make_grid,
)
from repro.core.codegen import boundary_condition_lines, compile_python_kernel
from repro.core.reference import reference_run, reference_step
from repro.errors import ConfigurationError


@pytest.mark.parametrize("dims", [2, 3])
@pytest.mark.parametrize("radius", [1, 2, 3])
def test_accelerator_periodic_bit_identical(dims: int, radius: int) -> None:
    spec = StencilSpec.star(dims, radius)
    kwargs = dict(dims=dims, radius=radius, bsize_x=32, parvec=4, partime=2)
    if dims == 3:
        kwargs["bsize_y"] = 24
    cfg = BlockingConfig(**kwargs)
    shape = (15, 53) if dims == 2 else (6, 25, 37)
    grid = make_grid(shape, "mixed", seed=radius)
    expected = reference_run(grid, spec, 5, boundary="periodic")
    actual, _ = FPGAAccelerator(spec, cfg, boundary="periodic").run(grid, 5)
    assert np.array_equal(expected, actual)


@pytest.mark.parametrize("dims", [2, 3])
def test_codegen_periodic_matches_reference(dims: int) -> None:
    spec = StencilSpec.star(dims, 2)
    shape = (7, 9) if dims == 2 else (4, 5, 6)
    grid = make_grid(shape, "random", seed=2)
    kernel = compile_python_kernel(spec, boundary="periodic")
    dst = np.empty(grid.size, np.float32)
    kernel(grid.ravel().copy(), dst, shape)
    expected = reference_step(grid, spec, boundary="periodic")
    assert np.array_equal(dst, expected.ravel())


def test_generated_periodic_lines_use_modulo() -> None:
    lines = boundary_condition_lines(StencilSpec.star(2, 2), "c", "periodic")
    assert all("%" in line for line in lines)
    assert not any("?" in line for line in lines)  # no clamp ternaries


def test_periodic_translation_equivariance() -> None:
    """With periodic boundaries the update commutes with np.roll —
    a property clamp boundaries cannot have."""
    spec = StencilSpec.star(2, 2)
    grid = make_grid((12, 16), "random", seed=3)
    rolled_then_stepped = reference_step(
        np.roll(grid, 5, axis=1), spec, boundary="periodic"
    )
    stepped_then_rolled = np.roll(
        reference_step(grid, spec, boundary="periodic"), 5, axis=1
    )
    assert np.array_equal(rolled_then_stepped, stepped_then_rolled)


def test_periodic_mass_conservation() -> None:
    """Normalized coefficients + periodic wrap: the sum over the grid is
    conserved exactly in exact arithmetic (and tightly in float32)."""
    spec = StencilSpec.star(2, 1)
    grid = make_grid((20, 20), "random", seed=4)
    out = reference_run(grid, spec, 10, boundary="periodic")
    assert float(out.sum()) == pytest.approx(float(grid.sum()), rel=1e-5)


def test_boundaries_differ_at_edges_only() -> None:
    spec = StencilSpec.star(2, 1)
    grid = make_grid((16, 16), "random", seed=5)
    clamp = reference_step(grid, spec, boundary="clamp")
    wrap = reference_step(grid, spec, boundary="periodic")
    assert np.array_equal(clamp[1:-1, 1:-1], wrap[1:-1, 1:-1])
    assert not np.array_equal(clamp, wrap)


def test_invalid_boundary_rejected_everywhere() -> None:
    spec = StencilSpec.star(2, 1)
    cfg = BlockingConfig(dims=2, radius=1, bsize_x=16, parvec=2, partime=1)
    grid = make_grid((8, 16), "random")
    with pytest.raises(ConfigurationError):
        reference_step(grid, spec, boundary="reflect")
    with pytest.raises(ConfigurationError):
        FPGAAccelerator(spec, cfg, boundary="reflect")
    with pytest.raises(ConfigurationError):
        boundary_condition_lines(spec, "c", "reflect")
