"""Property-based batch equivalence: run_batch == B separate runs, bit for bit.

The batch engine's contract (:mod:`repro.core.batch`): packing any
number of same-shape grids into one slab and driving them through the
one pass loop changes *scheduling*, never numerics — on the NumPy pass
and on the native driver, whose claim counter spans the whole slab.  The
strategies deliberately draw awkward shapes — partial blocks, extent-1
axes, grids smaller than the halo — because those are where a slab
off-by-one would first show.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    BatchPlan,
    BlockingConfig,
    FPGAAccelerator,
    StencilSpec,
    make_grid,
    reference_run,
)
from repro.core.native import native_available


@st.composite
def batch_case(draw):
    radius = draw(st.integers(1, 2))
    partime = draw(st.integers(1, 3))
    parvec = draw(st.sampled_from([1, 2, 4]))
    halo = partime * radius
    bsize_x = ((2 * halo) // parvec + 1) * parvec + draw(st.integers(1, 4)) * parvec
    cfg = BlockingConfig(
        dims=2, radius=radius, bsize_x=bsize_x, parvec=parvec, partime=partime
    )
    ny = draw(st.integers(1, 12))
    nx = draw(st.integers(1, 40))
    n_grids = draw(st.integers(1, 6))
    iters = draw(st.integers(0, partime + 2))
    seed = draw(st.integers(0, 2**16))
    boundary = draw(st.sampled_from(["clamp", "periodic"]))
    return cfg, (ny, nx), n_grids, iters, seed, boundary


@settings(max_examples=40, deadline=None)
@given(batch_case())
def test_batch_matches_per_grid_runs(case) -> None:
    cfg, shape, n_grids, iters, seed, boundary = case
    spec = StencilSpec.star(2, cfg.radius)
    grids = [
        make_grid(shape, "mixed", seed=seed + i) for i in range(n_grids)
    ]
    acc = FPGAAccelerator(spec, cfg, boundary=boundary, engine="numpy")
    try:
        batch = acc.run_batch(grids, iters)
        assert batch.ok
        for g, out in zip(grids, batch.outputs):
            single, _ = acc.run(g, iters)
            assert np.array_equal(out, single)
    finally:
        acc.close()


@settings(max_examples=20, deadline=None)
@given(batch_case())
def test_batch_matches_reference(case) -> None:
    cfg, shape, n_grids, iters, seed, boundary = case
    spec = StencilSpec.star(2, cfg.radius)
    grids = [
        make_grid(shape, "mixed", seed=seed + i) for i in range(n_grids)
    ]
    acc = FPGAAccelerator(spec, cfg, boundary=boundary, engine="numpy")
    try:
        batch = acc.run_batch(grids, iters)
        for g, out in zip(grids, batch.outputs):
            assert np.array_equal(
                out, reference_run(g, spec, iters, boundary=boundary)
            )
    finally:
        acc.close()


@settings(max_examples=25, deadline=None)
@given(batch_case())
def test_pack_unpack_round_trip(case) -> None:
    cfg, shape, n_grids, _, seed, boundary = case
    grids = [
        make_grid(shape, "mixed", seed=seed + i) for i in range(n_grids)
    ]
    bplan = BatchPlan(cfg, shape, n_grids, boundary)
    out = bplan.unpack(bplan.pack(grids))
    for g, o in zip(grids, out):
        assert np.array_equal(g, o)


@pytest.mark.skipif(not native_available(), reason="no C compiler")
@settings(max_examples=25, deadline=None)
@given(batch_case())
def test_unit_decomposition_is_bijective(case) -> None:
    """The native driver's claim counter decodes ``t -> (g, b)`` onto
    every ``(grid, block)`` unit of the slab exactly once: one pass
    into a NaN-filled output slab leaves no cell unwritten and every
    grid equal to its own reference."""
    cfg, shape, n_grids, _, seed, boundary = case
    spec = StencilSpec.star(2, cfg.radius)
    slab = np.stack(
        [make_grid(shape, "mixed", seed=seed + i) for i in range(n_grids)]
    )
    out = np.full_like(slab, np.nan)
    acc = FPGAAccelerator(
        spec, cfg, boundary=boundary, engine="native", workers=2
    )
    try:
        acc.run_batch(slab, cfg.partime, out=out)  # one pass, into out
    finally:
        acc.close()
    for g in range(n_grids):
        assert np.array_equal(
            out[g], reference_run(slab[g], spec, cfg.partime, boundary=boundary)
        )
