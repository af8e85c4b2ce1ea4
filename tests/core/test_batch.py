"""The batched many-small-grids engine (repro.core.batch + run_batch).

Slab geometry, typed validation, and the central invariant: a batched
run is bit-identical to the same grids run one at a time — batching
changes scheduling, never numerics.  The property suite
(``tests/properties/test_batch_props.py``) widens the shape/boundary
coverage; this file pins the API surface and the accounting.
"""

from __future__ import annotations

import contextlib
import dataclasses

import numpy as np
import pytest

from repro.core import (
    BatchPlan,
    BlockingConfig,
    FPGAAccelerator,
    StencilSpec,
    make_grid,
    reference_run,
)
from repro.core.native import native_available, slab_layout
from repro.errors import ConfigurationError, FaultDetectedError
from repro.faults import FaultPlan, SEUFault, arm, crc32_array

SPEC = StencilSpec.star(2, 1)
CONFIG = BlockingConfig(dims=2, radius=1, bsize_x=32, parvec=4, partime=2)
SHAPE = (12, 20)  # partial blocks on the blocked axis


def grids(n: int, shape=SHAPE) -> list[np.ndarray]:
    return [make_grid(shape, "mixed", seed=100 + i) for i in range(n)]


# -- BatchPlan geometry ------------------------------------------------------ #


def test_batch_plan_layout_and_offsets() -> None:
    bplan = BatchPlan(CONFIG, SHAPE, 5)
    assert bplan.slab_shape == (5,) + SHAPE
    # the driver reaches grid g at g * grid_stride floats
    stride = SHAPE[0] * SHAPE[1]
    slab = bplan.pack(grids(5))
    assert slab_layout(slab, 2) == (5, stride, SHAPE[1], 0)
    assert slab_layout(slab[:1], 2) == (1, stride, SHAPE[1], 0)


def test_batch_plan_rejects_bad_n_grids() -> None:
    with pytest.raises(ConfigurationError) as exc:
        BatchPlan(CONFIG, SHAPE, 0)
    assert exc.value.param == "n_grids"


def test_pack_validates_count_and_shapes() -> None:
    bplan = BatchPlan(CONFIG, SHAPE, 3)
    with pytest.raises(ConfigurationError):
        bplan.pack(grids(2))
    bad = grids(3)
    bad[1] = make_grid((8, 20), "mixed", seed=1)
    with pytest.raises(ConfigurationError) as exc:
        bplan.pack(bad)
    assert "grid 1" in str(exc.value)


def test_pack_unpack_round_trips_copies() -> None:
    gs = grids(4)
    bplan = BatchPlan(CONFIG, SHAPE, 4)
    slab = bplan.pack(gs)
    assert slab.dtype == np.float32 and slab.flags["C_CONTIGUOUS"]
    out = bplan.unpack(slab)
    for g, o in zip(gs, out):
        assert np.array_equal(g, o)
    out[0][0, 0] = 99.0  # unpack returns copies, not slab views
    assert slab[0, 0, 0] != 99.0


# -- run_batch semantics ----------------------------------------------------- #


@pytest.mark.parametrize("engine", ["numpy", "auto"])
@pytest.mark.parametrize("boundary", ["clamp", "periodic"])
def test_run_batch_matches_per_grid_runs(engine: str, boundary: str) -> None:
    gs = grids(5)
    acc = FPGAAccelerator(SPEC, CONFIG, boundary=boundary, engine=engine)
    try:
        batch = acc.run_batch(gs, iterations=3)
        assert batch.ok and batch.n_failed == 0
        for g, out in zip(gs, batch.outputs):
            single, _ = acc.run(g, 3)
            assert np.array_equal(out, single)
    finally:
        acc.close()


def test_run_batch_matches_reference() -> None:
    gs = grids(3)
    acc = FPGAAccelerator(SPEC, CONFIG)
    try:
        batch = acc.run_batch(gs, iterations=4)
        for g, out in zip(gs, batch.outputs):
            assert np.array_equal(out, reference_run(g, SPEC, 4))
    finally:
        acc.close()


def test_run_batch_zero_iterations_copies() -> None:
    gs = grids(2)
    acc = FPGAAccelerator(SPEC, CONFIG)
    try:
        batch = acc.run_batch(gs, iterations=0)
        for g, out in zip(gs, batch.outputs):
            assert np.array_equal(out, g)
            assert out is not g
    finally:
        acc.close()


def _counters(stats) -> dict:
    """Every AcceleratorStats counter (the output CRC is not one)."""
    fields = dataclasses.asdict(stats)
    fields.pop("output_crc32")
    return fields


def _single(batch):
    assert batch.ok
    (out,) = batch.outputs
    return out, batch.stats


@pytest.mark.parametrize("mode", ["numpy", "native", "armed-rollback"])
def test_run_batch_single_grid_degenerates_to_run(mode: str) -> None:
    # run(g), run_batch([g]) and run_batch(g[None]) are one pass loop
    # over a one-grid slab: same bits, same counters
    if mode == "native" and not native_available():
        pytest.skip("no C compiler")
    armed = mode == "armed-rollback"
    (g,) = grids(1)
    acc = FPGAAccelerator(SPEC, CONFIG, engine="auto" if armed else mode)
    checkpoint = 1 if armed else None
    calls = (
        lambda: acc.run(g, 4, checkpoint=checkpoint),
        lambda: _single(acc.run_batch([g], 4, checkpoint=checkpoint)),
        lambda: _single(acc.run_batch(g[None], 4, checkpoint=checkpoint)),
    )
    try:
        results = []
        for call in calls:
            # armed: an SEU in the first pass, caught and rolled back
            seu = FaultPlan(
                seed=5, faults=(SEUFault(at_touch=1, site="block-buffer"),)
            )
            with arm(seu) if armed else contextlib.nullcontext():
                results.append(call())
        want = reference_run(g, SPEC, 4)
        for out, stats in results:
            assert np.array_equal(out, want)
            assert _counters(stats) == _counters(results[0][1])
        assert results[0][1].rollbacks == (1 if armed else 0)
    finally:
        acc.close()


def test_run_batch_on_a_stacked_slab_leaves_it_unmodified() -> None:
    slab = np.stack(grids(3))
    before = slab.copy()
    acc = FPGAAccelerator(SPEC, CONFIG)
    try:
        for iters in (0, 3, 4):  # copy, odd and even pass counts
            batch = acc.run_batch(slab, iters)
            assert np.array_equal(slab, before)
            for g, out in enumerate(batch.outputs):
                assert not np.may_share_memory(out, slab)
                assert np.array_equal(out, reference_run(before[g], SPEC, iters))
    finally:
        acc.close()


def test_run_batch_validation_is_typed() -> None:
    acc = FPGAAccelerator(SPEC, CONFIG)
    try:
        with pytest.raises(ConfigurationError):
            acc.run_batch([], iterations=1)
        with pytest.raises(ConfigurationError):
            acc.run_batch(grids(2), iterations=-1)
        with pytest.raises(ConfigurationError):
            acc.run_batch(grids(2), iterations=1, expected_crcs=[None])
        mixed = [make_grid(SHAPE, "mixed", seed=0),
                 make_grid((16, 20), "mixed", seed=1)]
        with pytest.raises(ConfigurationError):
            acc.run_batch(mixed, iterations=1)
    finally:
        acc.close()

    acc.close()
    with pytest.raises(ConfigurationError):
        acc.run_batch(grids(2), iterations=1)


def test_run_batch_crc_mismatch_fails_only_that_grid() -> None:
    gs = grids(3)
    acc = FPGAAccelerator(SPEC, CONFIG)
    try:
        expected = [
            crc32_array(reference_run(g, SPEC, 2)) for g in gs
        ]
        expected[1] ^= 0xDEADBEEF  # sabotage one grid's golden CRC
        batch = acc.run_batch(gs, iterations=2, expected_crcs=expected)
        assert batch.n_failed == 1
        assert batch.outputs[1] is None
        assert isinstance(batch.errors[1], FaultDetectedError)
        for i in (0, 2):
            assert batch.errors[i] is None
            assert np.array_equal(
                batch.outputs[i], reference_run(gs[i], SPEC, 2)
            )
    finally:
        acc.close()


def test_run_batch_stats_scale_with_n_grids() -> None:
    gs = grids(4)
    acc = FPGAAccelerator(SPEC, CONFIG)
    try:
        batch = acc.run_batch(gs, iterations=2)
        _, single_stats = acc.run(gs[0], 2)
        assert batch.stats.passes == CONFIG.passes(2)
        assert batch.stats.cells_written == 4 * single_stats.cells_written
        assert batch.stats.pe_invocations == 4 * single_stats.pe_invocations
    finally:
        acc.close()


def test_run_batch_with_checkpoint_is_bit_exact() -> None:
    gs = grids(3)
    acc = FPGAAccelerator(SPEC, CONFIG)
    try:
        batch = acc.run_batch(gs, iterations=4, checkpoint=1)
        assert batch.ok
        for g, out in zip(gs, batch.outputs):
            assert np.array_equal(out, reference_run(g, SPEC, 4))
        assert batch.stats.checkpoints > 0
    finally:
        acc.close()
