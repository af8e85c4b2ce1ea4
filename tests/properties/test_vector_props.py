"""Property tests: the native driver is bit-identical to the golden
reference across dimensionalities, radii, boundaries, SIMD widths and
awkward extents.

The driver pads each block row's x stride to the SIMD width (the
largest power of two dividing ``parvec``), so the geometries most likely
to break it are the ones where the padding actually does something: odd
extents, x extents that are not a multiple of ``parvec``, grids smaller
than a single block, and ``parvec`` values that are not powers of two.  Hypothesis
draws those shapes; the oracle is :func:`repro.core.reference
.reference_run` (plain NumPy, no blocking, no vectorization).  Equality
is ``np.array_equal`` — bit-exact, not approximate — because the shared
accumulation-order contract (`_acc_lines` + ``-ffp-contract=off``) is
the whole point of one engine.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    BlockingConfig,
    FPGAAccelerator,
    StencilSpec,
    make_grid,
)
from repro.core.native import native_available, vector_width_for
from repro.core.reference import reference_run
from repro.lint import lint_plan

needs_driver = pytest.mark.skipif(
    not native_available(), reason="no C compiler for the pass driver"
)


def _vec_cfg(dims, radius, partime, parvec):
    """A valid vectorized config: bsize_x a parvec multiple > 2*halo."""
    halo = partime * radius
    bsize_x = -(-max(2 * halo + 4, 2 * parvec) // parvec) * parvec
    bsize_y = 2 * halo + 6 if dims == 3 else None
    return BlockingConfig(
        dims=dims, radius=radius, bsize_x=bsize_x, bsize_y=bsize_y,
        parvec=parvec, partime=partime,
    )


def _run_vector(spec, cfg, shape, boundary, iters, seed):
    grid = make_grid(shape, "random", seed=seed)
    acc = FPGAAccelerator(spec, cfg, boundary=boundary, engine="native")
    try:
        assert acc.resolved_engine == "native"
        assert acc._driver.vector_width == vector_width_for(cfg.parvec)
        out, _ = acc.run(grid, iters)
        batch = acc.run_batch([grid, -grid], iters)
    finally:
        acc.close()
    want = reference_run(grid, spec, iters, boundary=boundary)
    assert np.array_equal(out, want)
    assert np.array_equal(batch.outputs[0], want)
    assert np.array_equal(
        batch.outputs[1], reference_run(-grid, spec, iters, boundary=boundary)
    )


@needs_driver
@settings(max_examples=30, deadline=None)
@given(
    radius=st.integers(1, 2),
    partime=st.integers(1, 3),
    parvec=st.sampled_from([2, 3, 4, 6, 8]),
    ny=st.integers(2, 17),
    nx=st.integers(2, 61),
    iters=st.integers(1, 4),
    boundary=st.sampled_from(["clamp", "periodic"]),
    seed=st.integers(0, 2**16),
)
def test_vector_engine_matches_reference_2d(
    radius, partime, parvec, ny, nx, iters, boundary, seed
) -> None:
    spec = StencilSpec.star(2, radius)
    cfg = _vec_cfg(2, radius, partime, parvec)
    _run_vector(spec, cfg, (ny, nx), boundary, iters, seed)


@needs_driver
@settings(max_examples=15, deadline=None)
@given(
    radius=st.integers(1, 2),
    partime=st.integers(1, 2),
    parvec=st.sampled_from([2, 3, 4, 6]),
    nz=st.integers(2, 9),
    ny=st.integers(2, 13),
    nx=st.integers(2, 41),
    iters=st.integers(1, 3),
    boundary=st.sampled_from(["clamp", "periodic"]),
    seed=st.integers(0, 2**16),
)
def test_vector_engine_matches_reference_3d(
    radius, partime, parvec, nz, ny, nx, iters, boundary, seed
) -> None:
    spec = StencilSpec.star(3, radius)
    cfg = _vec_cfg(3, radius, partime, parvec)
    _run_vector(spec, cfg, (nz, ny, nx), boundary, iters, seed)


@needs_driver
@pytest.mark.parametrize("tail", [1, 3, 5, 7])
def test_vector_engine_non_multiple_tail_2d(tail) -> None:
    """x extent = k*parvec + tail: the padded lanes past the tail must
    never leak into the result."""
    spec = StencilSpec.star(2, 2)
    cfg = _vec_cfg(2, 2, partime=2, parvec=8)
    for boundary in ("clamp", "periodic"):
        _run_vector(spec, cfg, (11, 3 * 8 + tail), boundary, 3, seed=tail)


@settings(max_examples=40, deadline=None)
@given(
    radius=st.integers(1, 3),
    partime=st.integers(1, 4),
    parvec=st.sampled_from([1, 2, 3, 4, 6, 8, 16]),
    ny=st.integers(2, 40),
    nx=st.integers(2, 90),
    boundary=st.sampled_from(["clamp", "periodic"]),
)
def test_vector_tables_lint_clean(
    radius, partime, parvec, ny, nx, boundary
) -> None:
    """Every honestly built plan passes P309 (and the whole plan pass):
    padded_x/scratch alignment and the layout-only property hold for
    arbitrary valid geometries, not just the benchmarked ones."""
    from repro.core.plan import PassPlan

    cfg = _vec_cfg(2, radius, partime, parvec)
    plan = PassPlan(cfg, (ny, nx), boundary)
    assert lint_plan(plan) == []
