"""``FPGAAccelerator.run(out=...)`` and ``run_batch(out=...)``.

With ``out`` the last pass writes straight into the caller's array: the
passes alternate between ``out`` and one scratch array, and which one a
pass writes depends only on the passes left, so the final pass lands in
``out`` for odd and even pass counts, partial final passes and after a
checkpoint rollback restarts the tail on the other parity.  Every case
must be bit-exact against ``reference_run``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    BlockingConfig,
    FPGAAccelerator,
    StencilSpec,
    make_grid,
    reference_run,
)
from repro.errors import ConfigurationError
from repro.faults import FaultPlan, SEUFault, arm
from repro.runtime.checkpoint import CheckpointPolicy

SPEC = StencilSpec.star(2, 1)
CONFIG = BlockingConfig(dims=2, radius=1, bsize_x=64, parvec=4, partime=2)
GRID = make_grid((16, 64), "mixed", seed=5)


def _run_into_out(engine: str, iterations: int):
    acc = FPGAAccelerator(SPEC, CONFIG, engine=engine)
    grid = GRID.copy()
    out = np.full_like(grid, np.nan)
    result, stats = acc.run(grid, iterations, out=out)
    assert result is out
    assert np.array_equal(grid, GRID)  # the input is not modified
    assert np.array_equal(out, reference_run(GRID, SPEC, iterations))
    return stats


@pytest.mark.parametrize("engine", ["auto", "numpy"])
@pytest.mark.parametrize(
    "iterations,passes",
    [(2, 1), (4, 2), (6, 3), (8, 4), (5, 3), (7, 4), (1, 1)],
)
def test_last_pass_lands_in_out(engine, iterations, passes) -> None:
    """Odd and even pass counts, with and without a partial last pass."""
    assert _run_into_out(engine, iterations).passes == passes


@pytest.mark.parametrize("engine", ["auto", "numpy"])
def test_zero_iterations_copies_input_into_out(engine) -> None:
    stats = _run_into_out(engine, 0)
    assert stats.passes == 0


def test_armed_rollback_that_changes_parity_still_lands_in_out() -> None:
    """The fault strikes mid pass 5 (0-based) of 8 and the run restarts
    from the snapshot after pass 3.  That flips the parity both of a
    ping-pong restarted on its first array (an odd restart index) and of
    one that keeps toggling (three extra pass launches: two replayed and
    the faulted one); the result must still be ``out``."""
    acc = FPGAAccelerator(SPEC, CONFIG)
    blocks = acc.run(GRID, CONFIG.partime)[1].blocks_per_pass
    touches_per_pass = blocks * (1 + CONFIG.partime)
    plan = FaultPlan(
        seed=11,
        faults=(SEUFault(at_touch=5 * touches_per_pass + 1, site="block-buffer"),),
    )
    out = np.full_like(GRID, np.nan)
    with arm(plan) as inj:
        result, stats = acc.run(
            GRID, 16, checkpoint=CheckpointPolicy(every=3), out=out
        )
        assert inj.detections and inj.recoveries
    assert stats.rollbacks == 1
    assert stats.replayed_passes == 2
    assert result is out
    assert np.array_equal(out, reference_run(GRID, SPEC, 16))


@pytest.mark.parametrize(
    "bad",
    [
        lambda g: np.empty((16, 63), dtype=np.float32),  # wrong shape
        lambda g: np.empty(g.shape, dtype=np.float64),  # wrong dtype
        lambda g: np.empty((64, 16), dtype=np.float32).T,  # not C-contiguous
        lambda g: g,  # the input itself
        lambda g: g.reshape(-1)[:].reshape(g.shape),  # a view of the input
    ],
    ids=["shape", "dtype", "strided", "input", "input-view"],
)
def test_bad_out_raises_typed(bad) -> None:
    acc = FPGAAccelerator(SPEC, CONFIG)
    grid = GRID.copy()
    with pytest.raises(ConfigurationError) as info:
        acc.run(grid, 4, out=bad(grid))
    assert info.value.param == "out"
    assert np.array_equal(grid, GRID)


def test_run_without_out_returns_fresh_array() -> None:
    acc = FPGAAccelerator(SPEC, CONFIG)
    first, _ = acc.run(GRID, 4)
    second, _ = acc.run(GRID, 4)
    assert not np.shares_memory(first, second)
    assert np.array_equal(first, second)


# -- run_batch(out=) -------------------------------------------------------- #


@pytest.mark.parametrize("engine", ["auto", "numpy"])
@pytest.mark.parametrize("iterations", [0, 5, 6])
def test_batch_outputs_are_views_of_out(engine, iterations) -> None:
    grids = [make_grid(GRID.shape, "mixed", seed=s) for s in range(3)]
    out = np.full((3,) + GRID.shape, np.nan, dtype=np.float32)
    acc = FPGAAccelerator(SPEC, CONFIG, engine=engine)
    batch = acc.run_batch(grids, iterations, out=out)
    assert batch.ok
    for g, grid in enumerate(grids):
        assert np.shares_memory(batch.outputs[g], out)
        assert np.array_equal(out[g], reference_run(grid, SPEC, iterations))


def test_batch_failed_entry_keeps_its_input_in_out() -> None:
    grids = [make_grid(GRID.shape, "mixed", seed=s) for s in range(2)]
    out = np.full((2,) + GRID.shape, np.nan, dtype=np.float32)
    acc = FPGAAccelerator(SPEC, CONFIG)
    batch = acc.run_batch(grids, 4, expected_crcs=[None, 0], out=out)
    assert batch.errors[0] is None and batch.errors[1] is not None
    assert np.array_equal(out[0], reference_run(grids[0], SPEC, 4))
    assert np.array_equal(out[1], grids[1])


def test_batch_out_overlapping_an_input_raises() -> None:
    slab = np.stack([GRID, GRID])
    acc = FPGAAccelerator(SPEC, CONFIG)
    with pytest.raises(ConfigurationError):
        acc.run_batch([slab[0], slab[1]], 4, out=slab)
    with pytest.raises(ConfigurationError):
        acc.run_batch([GRID, GRID], 4, out=np.empty((3,) + GRID.shape, np.float32))
