"""Property tests for the extension layers (codegen, run composition)."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import StencilSpec, make_grid, reference_step
from repro.core.codegen import compile_python_kernel
from repro.core.reference import reference_run


@settings(max_examples=10)
@given(
    dims=st.sampled_from([2, 3]),
    radius=st.integers(1, 6),
    seed=st.integers(0, 2**16),
)
def test_generated_kernel_equals_reference_any_radius(dims, radius, seed) -> None:
    """The code generator is radius-generic: generated kernels match the
    reference for radii beyond the paper's 4 as well."""
    spec = StencilSpec.star(dims, radius)
    shape = (6, 9) if dims == 2 else (3, 4, 6)
    grid = make_grid(shape, "random", seed=seed)
    kernel = compile_python_kernel(spec)
    dst = np.empty(grid.size, dtype=np.float32)
    kernel(grid.ravel().copy(), dst, shape)
    assert np.array_equal(dst, reference_step(grid, spec).ravel())


@settings(max_examples=15)
@given(
    radius=st.integers(1, 3),
    iters_a=st.integers(0, 4),
    iters_b=st.integers(0, 4),
    seed=st.integers(0, 2**16),
)
def test_run_composition(radius, iters_a, iters_b, seed) -> None:
    """Running a+b steps equals running a then b (the engine is a clean
    discrete dynamical system with no hidden state)."""
    spec = StencilSpec.star(2, radius)
    grid = make_grid((8, 20), "random", seed=seed)
    combined = reference_run(grid, spec, iters_a + iters_b)
    staged = reference_run(reference_run(grid, spec, iters_a), spec, iters_b)
    assert np.array_equal(combined, staged)
