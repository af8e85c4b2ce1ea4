"""Property tests for the extension layers (wave, codegen)."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BlockingConfig, StencilSpec, make_grid, reference_step
from repro.core.codegen import compile_python_kernel
from repro.core.reference import reference_run
from repro.core.wave import WaveAccelerator, WaveSpec, wave_reference_run


@settings(max_examples=20)
@given(
    radius=st.integers(1, 4),
    partime=st.integers(1, 3),
    ny=st.integers(3, 16),
    nx=st.integers(3, 48),
    seed=st.integers(0, 2**16),
)
def test_wave_accelerator_equals_reference(radius, partime, ny, nx, seed) -> None:
    """Two-field blocked leapfrog == golden leapfrog, bit for bit, for
    any radius/partime/shape."""
    spec = WaveSpec(2, radius, 0.8 * WaveSpec.max_stable_courant(2, radius))
    halo = partime * radius
    cfg = BlockingConfig(
        dims=2, radius=radius, bsize_x=2 * halo + 8, parvec=2, partime=partime
    )
    u1 = make_grid((ny, nx), "random", seed=seed)
    u0 = 0.5 * u1
    iters = partime + 1
    rp, rc = wave_reference_run(u0, u1, spec, iters)
    ap, ac, _ = WaveAccelerator(spec, cfg).run(u0, u1, iters)
    assert np.array_equal(rc, ac) and np.array_equal(rp, ap)


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


@settings(max_examples=15)
@given(
    radius=st.integers(1, 2),
    partime=st.integers(1, 3),
    seed=st.integers(0, 2**16),
)
def test_wave_energy_bounded_under_cfl(radius, partime, seed) -> None:
    """A CFL-stable leapfrog run through the blocked accelerator stays
    bounded (no blow-up introduced by blocking)."""
    spec = WaveSpec(2, radius, 0.7 * WaveSpec.max_stable_courant(2, radius))
    cfg = BlockingConfig(
        dims=2, radius=radius, bsize_x=2 * partime * radius + 16,
        parvec=2, partime=partime,
    )
    u1 = (make_grid((12, 30), "random", seed=seed) - 0.5) * 0.2
    _, cur, _ = WaveAccelerator(spec, cfg).run(u1, u1, 30)
    assert float(np.abs(cur).max()) < 50.0
