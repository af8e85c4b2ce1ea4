"""Property-based equivalence: accelerator == reference, bit for bit.

This is the central correctness property of the reproduction (DESIGN.md
§5): for *any* stencil radius, blocking configuration and grid shape, the
functional FPGA simulator must produce float32 results identical to the
golden sequential engine.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    BlockingConfig,
    FPGAAccelerator,
    StencilSpec,
    make_grid,
    reference_run,
)
from repro.core.native import native_available


@st.composite
def config_2d(draw):
    radius = draw(st.integers(1, 4))
    partime = draw(st.integers(1, 4))
    # 3 and 6 are not powers of two: the driver runs them at the largest
    # power-of-two divisor (VEC=1 and VEC=2)
    parvec = draw(st.sampled_from([1, 2, 3, 4, 6]))
    halo = partime * radius
    # bsize must exceed 2*halo and be a parvec multiple
    extra = draw(st.integers(1, 8)) * parvec
    bsize_x = ((2 * halo) // parvec + 1) * parvec + extra
    cfg = BlockingConfig(
        dims=2, radius=radius, bsize_x=bsize_x, parvec=parvec, partime=partime
    )
    ny = draw(st.integers(1, 24))
    nx = draw(st.integers(1, 90))
    iters = draw(st.integers(0, 2 * partime + 1))
    seed = draw(st.integers(0, 2**16))
    boundary = draw(st.sampled_from(["clamp", "periodic"]))
    return cfg, (ny, nx), iters, seed, boundary


@st.composite
def config_3d(draw):
    radius = draw(st.integers(1, 3))
    partime = draw(st.integers(1, 3))
    parvec = draw(st.sampled_from([1, 2, 3, 4, 6]))
    halo = partime * radius
    bsize_x = ((2 * halo) // parvec + 1) * parvec + draw(st.integers(1, 4)) * parvec
    bsize_y = 2 * halo + draw(st.integers(1, 12))
    cfg = BlockingConfig(
        dims=3,
        radius=radius,
        bsize_x=bsize_x,
        bsize_y=bsize_y,
        parvec=parvec,
        partime=partime,
    )
    nz = draw(st.integers(1, 8))
    ny = draw(st.integers(1, 30))
    nx = draw(st.integers(1, 40))
    iters = draw(st.integers(0, 2 * partime))
    seed = draw(st.integers(0, 2**16))
    boundary = draw(st.sampled_from(["clamp", "periodic"]))
    return cfg, (nz, ny, nx), iters, seed, boundary


def _check_auto(spec, cfg, grid, iters, boundary) -> None:
    """``auto`` is bit-exact on ``run`` and ``run_batch`` and, with a
    compiler, resolves to the native driver for every ``parvec``."""
    expected = reference_run(grid, spec, iters, boundary=boundary)
    acc = FPGAAccelerator(spec, cfg, boundary=boundary)
    try:
        if native_available():
            assert acc.resolved_engine == "native"
        actual, _ = acc.run(grid, iters)
        batch = acc.run_batch([grid, grid[::-1]], iters)
    finally:
        acc.close()
    assert np.array_equal(expected, actual)
    assert np.array_equal(expected, batch.outputs[0])
    assert np.array_equal(
        reference_run(grid[::-1], spec, iters, boundary=boundary),
        batch.outputs[1],
    )


@given(config_2d())
def test_accelerator_equals_reference_2d(params) -> None:
    cfg, shape, iters, seed, boundary = params
    spec = StencilSpec.star(2, cfg.radius)
    grid = make_grid(shape, "random", seed=seed)
    _check_auto(spec, cfg, grid, iters, boundary)


@settings(max_examples=25)
@given(config_3d())
def test_accelerator_equals_reference_3d(params) -> None:
    cfg, shape, iters, seed, boundary = params
    spec = StencilSpec.star(3, cfg.radius)
    grid = make_grid(shape, "random", seed=seed)
    _check_auto(spec, cfg, grid, iters, boundary)


@settings(max_examples=20)
@given(config_2d(), st.integers(2, 4))
def test_engines_and_workers_bit_identical(params, workers) -> None:
    """The NumPy fallback, the native pass driver and its scalar build
    (both when a compiler is available) and the driver's worker count
    are pure execution choices: same bits."""
    cfg, shape, iters, seed, boundary = params
    spec = StencilSpec.star(2, cfg.radius)
    grid = make_grid(shape, "random", seed=seed)
    base, _ = FPGAAccelerator(spec, cfg, boundary=boundary).run(grid, iters)
    via_numpy, _ = FPGAAccelerator(
        spec, cfg, boundary=boundary, engine="numpy"
    ).run(grid, iters)
    parallel, _ = FPGAAccelerator(
        spec, cfg, boundary=boundary, workers=workers
    ).run(grid, iters)
    assert np.array_equal(base, via_numpy)
    assert np.array_equal(base, parallel)
    if native_available():
        for engine in ("native", "native-scalar"):
            acc = FPGAAccelerator(
                spec, cfg, boundary=boundary, engine=engine,
                workers=workers,
            )
            fused, _ = acc.run(grid, iters)
            acc.close()
            assert np.array_equal(base, fused)


@given(
    radius=st.integers(1, 4),
    partime=st.integers(1, 4),
    iters=st.integers(1, 6),
    seed=st.integers(0, 2**16),
)
def test_result_independent_of_blocking(radius, partime, iters, seed) -> None:
    """Two different valid blocking configs give the same bits: blocking is
    purely an execution-schedule choice, never a numerical one."""
    spec = StencilSpec.star(2, radius)
    grid = make_grid((12, 64), "random", seed=seed)
    halo = partime * radius
    cfg_a = BlockingConfig(
        dims=2, radius=radius, bsize_x=2 * halo + 8, parvec=1, partime=partime
    )
    cfg_b = BlockingConfig(
        dims=2, radius=radius, bsize_x=2 * halo + 24, parvec=2, partime=partime
    )
    out_a, _ = FPGAAccelerator(spec, cfg_a).run(grid, iters)
    out_b, _ = FPGAAccelerator(spec, cfg_b).run(grid, iters)
    assert np.array_equal(out_a, out_b)
