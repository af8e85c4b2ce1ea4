"""The fused native pass driver (``engine="native"``).

The driver executes an entire pass — every block, every chained PE
stage, gather and writeback — in one ctypes call against a persistent
pthread worker pool.  Being a pure execution choice, it must be
bit-identical to the NumPy engine and to its own scalar build
(``engine="native-scalar"``) for every geometry, boundary and worker
count; these tests pin that down, plus the pool lifecycle (reuse across runs, ``close()``,
``REPRO_NO_NATIVE`` fallback) and the interplay with checkpointed
recovery (armed runs force the serial channel path).
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.core import (
    BlockingConfig,
    FPGAAccelerator,
    StencilSpec,
    make_grid,
    reference_run,
)
from repro.core.native import (
    DISABLE_ENV,
    native_available,
    native_driver,
    usable_cpus,
)
from repro.core.plan import DRIVER_RECORD_LEN, PassPlan
from repro.errors import ConfigurationError
from repro.faults import FaultPlan, SEUFault, arm

needs_driver = pytest.mark.skipif(
    not native_available(), reason="no C compiler for the pass driver"
)


def _cfg(dims: int, radius: int, partime: int) -> BlockingConfig:
    halo = partime * radius
    bsize_x = max(4 * ((2 * halo) // 4 + 2), 16)
    bsize_y = 2 * halo + 6 if dims == 3 else None
    return BlockingConfig(
        dims=dims, radius=radius, bsize_x=bsize_x, bsize_y=bsize_y,
        parvec=4, partime=partime,
    )


# -- bit-identity across engines, geometries and worker counts -------------- #


@needs_driver
@pytest.mark.parametrize("radius", [1, 2, 3, 4])
@pytest.mark.parametrize("boundary", ["clamp", "periodic"])
def test_2d_bit_identical_across_engines(radius, boundary) -> None:
    spec = StencilSpec.star(2, radius)
    cfg = _cfg(2, radius, partime=2)
    grid = make_grid((13, 70), "random", seed=radius)
    iters = 2 * cfg.partime + 1  # partial final pass
    want, _ = FPGAAccelerator(
        spec, cfg, boundary=boundary, engine="numpy"
    ).run(grid, iters)
    scalar = FPGAAccelerator(
        spec, cfg, boundary=boundary, engine="native-scalar"
    )
    unvectorized, _ = scalar.run(grid, iters)
    scalar.close()
    acc = FPGAAccelerator(
        spec, cfg, boundary=boundary, engine="native", workers=2
    )
    fused, _ = acc.run(grid, iters)
    acc.close()
    assert np.array_equal(want, unvectorized)
    assert np.array_equal(want, fused)


@needs_driver
@pytest.mark.parametrize("radius", [1, 2, 4])
@pytest.mark.parametrize("boundary", ["clamp", "periodic"])
def test_3d_bit_identical_across_engines(radius, boundary) -> None:
    spec = StencilSpec.star(3, radius)
    cfg = _cfg(3, radius, partime=2)
    grid = make_grid((5, 29, 46), "random", seed=radius)
    iters = cfg.partime + 1  # odd iterations: one full + one partial pass
    want, _ = FPGAAccelerator(
        spec, cfg, boundary=boundary, engine="numpy"
    ).run(grid, iters)
    acc = FPGAAccelerator(
        spec, cfg, boundary=boundary, engine="native", workers=4
    )
    fused, _ = acc.run(grid, iters)
    acc.close()
    assert np.array_equal(want, fused)


@needs_driver
@pytest.mark.parametrize("workers", [1, 2, 4, 9])
def test_worker_count_never_changes_bits(workers) -> None:
    # more workers than blocks included: extra threads must idle safely.
    # A single-block grid and a B=1 batch of it are one-unit passes,
    # which the driver runs inline on the calling thread at any size.
    spec = StencilSpec.star(2, 2)
    cfg = _cfg(2, 2, partime=3)
    grid = make_grid((9, 95), "mixed", seed=3)
    single = make_grid((9, 7), "mixed", seed=4)
    acc = FPGAAccelerator(spec, cfg, engine="native", workers=workers)
    try:
        got, _ = acc.run(grid, 7)
        one, stats = acc.run(single, 7)
        batch = acc.run_batch([single], 7)
    finally:
        acc.close()
    assert np.array_equal(reference_run(grid, spec, 7), got)
    assert stats.blocks_per_pass == 1
    want = reference_run(single, spec, 7)
    assert np.array_equal(want, one)
    assert batch.ok and np.array_equal(want, batch.outputs[0])


def test_default_pool_is_one_worker_per_usable_cpu() -> None:
    spec = StencilSpec.star(2, 1)
    cfg = _cfg(2, 1, partime=2)
    acc = FPGAAccelerator(spec, cfg)
    try:
        assert acc.workers == usable_cpus() == len(os.sched_getaffinity(0))
        if acc._driver is not None:
            assert acc._driver.workers == acc.workers
    finally:
        acc.close()
    # a process pinned to one CPU gets a one-worker pool
    probe = (
        "import os\n"
        "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
        "from repro.core import BlockingConfig, FPGAAccelerator, StencilSpec\n"
        "cfg = BlockingConfig(dims=2, radius=1, bsize_x=16, parvec=4,"
        " partime=2)\n"
        "print(FPGAAccelerator(StencilSpec.star(2, 1), cfg).workers)\n"
    )
    env = dict(
        os.environ, PYTHONPATH=str(pathlib.Path(repro.__file__).parents[1])
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "1"


@needs_driver
def test_matches_reference_many_iterations() -> None:
    spec = StencilSpec.star(2, 1)
    cfg = _cfg(2, 1, partime=2)
    grid = make_grid((16, 64), "mixed", seed=7)
    acc = FPGAAccelerator(spec, cfg, engine="native", workers=2)
    out, stats = acc.run(grid, 25)
    acc.close()
    assert np.array_equal(out, reference_run(grid, spec, 25))
    assert stats.passes == 13  # 12 full + 1 partial


# -- engine selection, pool lifetime, close() ------------------------------- #


@needs_driver
def test_auto_ladder_selects_driver_and_reuses_it() -> None:
    spec = StencilSpec.star(2, 1)
    cfg = _cfg(2, 1, partime=2)
    acc = FPGAAccelerator(spec, cfg)  # engine="auto"
    assert acc.resolved_engine == "native"
    pool = acc._driver
    grid = make_grid((12, 48), "random", seed=1)
    for iters in (1, 4, 5):
        out, _ = acc.run(grid, iters)
        assert np.array_equal(out, reference_run(grid, spec, iters))
        assert acc._driver is pool  # one pool per accelerator, not per run
    acc.close()


@needs_driver
def test_close_is_idempotent_and_run_after_close_raises_typed() -> None:
    spec = StencilSpec.star(2, 1)
    cfg = _cfg(2, 1, partime=2)
    grid = make_grid((12, 48), "random", seed=2)
    acc = FPGAAccelerator(spec, cfg)
    acc.run(grid, 5)
    assert not acc.closed
    acc.close()
    acc.close()  # idempotent: second close is a no-op
    assert acc.closed
    # a closed accelerator fails typed instead of deadlocking on the
    # released pool (or silently degrading to a slower engine)
    with pytest.raises(ConfigurationError) as exc:
        acc.run(grid, 5)
    assert exc.value.param == "closed"
    assert "closed" in exc.value.details()
    acc.close()  # still idempotent after the failed run


@needs_driver
def test_separate_accelerators_get_separate_pools() -> None:
    spec = StencilSpec.star(2, 1)
    cfg = _cfg(2, 1, partime=2)
    a = FPGAAccelerator(spec, cfg, engine="native", workers=2)
    b = FPGAAccelerator(spec, cfg, engine="native", workers=2)
    try:
        assert a._driver is not b._driver
        assert a._driver.lib_path == b._driver.lib_path  # shared .so
    finally:
        a.close()
        b.close()


def test_engine_knob_validation() -> None:
    spec = StencilSpec.star(2, 1)
    cfg = _cfg(2, 1, partime=2)
    with pytest.raises(ConfigurationError):
        FPGAAccelerator(spec, cfg, engine="fpga")


def test_disable_env_blocks_driver(monkeypatch) -> None:
    monkeypatch.setenv(DISABLE_ENV, "1")
    spec = StencilSpec.star(2, 1)
    cfg = _cfg(2, 1, partime=2)
    assert native_driver(spec, 2, cfg.parvec) is None
    with pytest.raises(ConfigurationError):
        FPGAAccelerator(spec, cfg, engine="native")
    # auto degrades silently and still computes the right bits
    acc = FPGAAccelerator(spec, cfg)
    assert acc.resolved_engine == "numpy"
    grid = make_grid((12, 48), "random", seed=4)
    out, _ = acc.run(grid, 3)
    assert np.array_equal(out, reference_run(grid, spec, 3))


# -- driver tables ---------------------------------------------------------- #


def test_driver_tables_shapes_and_caching() -> None:
    cfg = _cfg(2, 2, partime=3)
    plan = PassPlan(cfg, (10, 90), "clamp")
    tables = plan.to_driver_tables(3)
    assert tables is plan.to_driver_tables(3)  # cached per steps
    assert tables.blocks.shape == (len(plan.blocks), DRIVER_RECORD_LEN[2])
    assert tables.windows.shape == (len(plan.blocks), 3, 2, 2)
    assert tables.segments.shape[1] == 4
    assert tables.blocks.dtype == np.int64
    partial = plan.to_driver_tables(1)
    assert partial.windows.shape[1] == 1
    assert partial is not tables


# -- checkpointed recovery and armed-run interplay -------------------------- #


@needs_driver
def test_checkpointed_driver_run_matches_plain() -> None:
    spec = StencilSpec.star(2, 1)
    cfg = _cfg(2, 1, partime=2)
    grid = make_grid((16, 64), "mixed", seed=7)
    acc = FPGAAccelerator(spec, cfg, engine="native", workers=2)
    plain, _ = acc.run(grid, 10)
    ckpt, stats = acc.run(grid, 10, checkpoint=2)
    acc.close()
    assert np.array_equal(plain, ckpt)
    assert stats.checkpoints == 2
    assert stats.rollbacks == 0


@needs_driver
def test_armed_rollback_mid_run_is_bit_exact() -> None:
    # an armed plan forces the serial channel path (the fused pass cannot
    # host injection hooks); rollback must restore bit-exactness and the
    # driver engine must keep working on the next, disarmed run
    spec = StencilSpec.star(2, 1)
    cfg = _cfg(2, 1, partime=2)
    grid = make_grid((16, 64), "mixed", seed=7)
    acc = FPGAAccelerator(spec, cfg, engine="native", workers=2)
    blocks = acc.run(grid, cfg.partime)[1].blocks_per_pass
    touches_per_pass = blocks * (1 + cfg.partime)
    plan = FaultPlan(
        seed=11,
        faults=(
            SEUFault(at_touch=8 * touches_per_pass + 1, site="block-buffer"),
        ),
    )
    ref = reference_run(grid, spec, 30)
    with arm(plan) as inj:
        out, stats = acc.run(grid, 30, checkpoint=4)
        assert inj.detections and inj.recoveries
    assert np.array_equal(out, ref)
    assert stats.rollbacks == 1
    disarmed, _ = acc.run(grid, 30)
    acc.close()
    assert np.array_equal(disarmed, ref)
