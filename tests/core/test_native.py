"""Tests for the generated native pass driver (repro.core.native)."""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.core import BlockingConfig, FPGAAccelerator, StencilSpec, make_grid
from repro.core.batch import BatchPlan
from repro.core.native import (
    DISABLE_ENV,
    READ_CHUNK_BYTES,
    SCALAR_FLAGS,
    _find_compiler,
    driver_source,
    native_available,
    native_driver,
    vector_width_for,
)
from repro.core.pe import pe_step_padded
from repro.core.plan import get_pass_plan
from repro.core.reference import reference_run
from repro.errors import ConfigurationError

needs_native = pytest.mark.skipif(
    not native_available(), reason="no C compiler available"
)


def test_kernel_source_is_deterministic_and_exact() -> None:
    spec = StencilSpec.star(3, 2)
    src = driver_source(spec)
    assert src == driver_source(spec)
    # the SIMD width is a runtime field of the job, not a build constant
    assert "#define VEC" not in src
    assert "J->vec" in src
    # coefficients are hex-float literals: exact float32 round-trip
    assert float(np.float32(spec.center)).hex() + "f" in src
    assert "-ffp-contract" not in src  # flags live in the compile step


@pytest.mark.parametrize(
    "parvec, width",
    [(1, 1), (2, 2), (3, 1), (4, 4), (6, 2), (8, 8), (12, 4), (16, 16)],
)
def test_vector_width_is_largest_power_of_two_divisor(parvec, width) -> None:
    assert vector_width_for(parvec) == width


@needs_native
@pytest.mark.parametrize("dims", [2, 3])
@pytest.mark.parametrize("radius", [1, 3])
def test_native_stage_bit_identical_to_pe_step_padded(
    dims: int, radius: int
) -> None:
    # one clamp pass of one stage through the driver equals the NumPy PE
    # stage over the edge-padded grid
    spec = StencilSpec.star(dims, radius)
    rng = np.random.default_rng(7)
    shape = (12, 20) if dims == 2 else (8, 14, 20)
    grid = rng.standard_normal(shape).astype(np.float32)
    padded = np.pad(grid, radius, mode="edge")
    window = ((0, shape[0]),) + tuple(
        (radius, n + radius) for n in shape[1:]
    )
    expected = pe_step_padded(padded, spec, window)
    cfg = BlockingConfig(
        dims=dims, radius=radius, bsize_x=32,
        bsize_y=32 if dims == 3 else None, parvec=4, partime=1,
    )
    acc = FPGAAccelerator(spec, cfg, engine="native")
    try:
        out, _ = acc.run(grid, 1)
    finally:
        acc.close()
    assert np.array_equal(out, expected)


@needs_native
def test_native_kernel_cached_per_spec() -> None:
    spec = StencilSpec.star(2, 1)
    a = native_driver(spec, 1)
    b = native_driver(StencilSpec.star(2, 1), 1)
    scalar = native_driver(spec, 1, SCALAR_FLAGS)
    try:
        assert a is not b  # own pools...
        assert a.lib_path == b.lib_path  # ...one compiled library
        # the flags are part of the build key
        assert scalar.lib_path != a.lib_path
    finally:
        for d in (a, b, scalar):
            d.close()
    # the width is not: every parvec of one stencil runs one library
    accs = [
        FPGAAccelerator(
            spec,
            BlockingConfig(dims=2, radius=1, bsize_x=32, parvec=pv, partime=2),
            engine="native",
        )
        for pv in (1, 4, 16)
    ]
    try:
        assert len({acc._driver.lib_path for acc in accs}) == 1
        assert [acc._vector_width for acc in accs] == [1, 4, 16]
    finally:
        for acc in accs:
            acc.close()


def test_disable_env_forces_fallback(monkeypatch) -> None:
    monkeypatch.setenv(DISABLE_ENV, "1")
    assert not native_available()
    assert native_driver(StencilSpec.star(2, 4), 1) is None
    spec = StencilSpec.star(2, 1)
    cfg = BlockingConfig(dims=2, radius=1, bsize_x=16, parvec=2, partime=2)
    acc = FPGAAccelerator(spec, cfg)  # auto engine falls back silently
    assert acc._driver is None
    for engine in ("native", "native-scalar"):
        with pytest.raises(ConfigurationError):
            FPGAAccelerator(spec, cfg, engine=engine)


def test_engine_knob_validation() -> None:
    spec = StencilSpec.star(2, 1)
    cfg = BlockingConfig(dims=2, radius=1, bsize_x=16, parvec=2, partime=2)
    for engine in ("cuda", "native-driver", "native-vector"):
        with pytest.raises(ConfigurationError) as exc:
            FPGAAccelerator(spec, cfg, engine=engine)
        assert exc.value.param == "engine"
    assert FPGAAccelerator(spec, cfg, engine="numpy")._driver is None


@needs_native
def test_engine_selection_and_run_equivalence() -> None:
    spec = StencilSpec.star(3, 2)
    cfg = BlockingConfig(
        dims=3, radius=2, bsize_x=24, bsize_y=20, parvec=4, partime=2
    )
    grid = make_grid((6, 25, 37), "mixed", seed=2)
    fast = FPGAAccelerator(spec, cfg, engine="native")
    slow = FPGAAccelerator(spec, cfg, engine="numpy")
    assert fast._driver is not None and fast._vector_width == 4
    assert slow.resolved_engine == "numpy"
    for iters in (1, 3, 4):
        out_fast, _ = fast.run(grid, iters)
        out_slow, _ = slow.run(grid, iters)
        assert np.array_equal(out_fast, out_slow)
    fast.close()


@needs_native
def test_driver_follows_scratch_growth_and_table_pointers() -> None:
    # the driver looks table and scratch addresses up once per tables
    # object and per scratch buffer: a larger grid grows the
    # accelerator's scratch, and every run after stays bit-exact
    spec = StencilSpec.star(2, 2)
    cfg = BlockingConfig(dims=2, radius=2, bsize_x=64, parvec=4, partime=2)
    acc = FPGAAccelerator(spec, cfg, engine="native")
    try:
        for shape in ((8, 20), (40, 150), (8, 20)):
            grid = make_grid(shape, "random", seed=len(shape) + shape[0])
            out, _ = acc.run(grid, 3)
            assert np.array_equal(out, reference_run(grid, spec, 3))
        tables = acc._driver_tables(get_pass_plan(cfg, (8, 20)), 2)
        assert tables.pointers == (
            tables.blocks.ctypes.data,
            tables.segments.ctypes.data,
            tables.windows.ctypes.data,
        )
        assert acc._driver._scratch is acc._driver_scratch
    finally:
        acc.close()


def _drive(driver, config, grids, iterations, boundary, width):
    """Step ``grids`` through ``driver`` pass by pass on width-``width``
    tables, one ``run_pass`` per pass over their slab."""
    bplan = BatchPlan(config, grids[0].shape, len(grids), boundary)
    plan = bplan.plan
    current = bplan.pack(grids)
    remaining = iterations
    while remaining > 0:
        steps = min(config.partime, remaining)
        tables = plan.to_driver_tables(steps, width)
        assert tables.vector_width == width
        scratch = np.empty(
            driver.workers * 2 * tables.scratch_floats, dtype=np.float32
        )
        target = np.empty_like(current)
        driver.run_pass(current, target, tables, plan.periodic, scratch)
        current = target
        remaining -= steps
    return bplan.unpack(current)


@needs_native
@pytest.mark.parametrize("dims, radius", [(2, 2), (3, 1)])
@pytest.mark.parametrize("boundary", ["clamp", "periodic"])
def test_one_driver_runs_every_vector_width(dims, radius, boundary) -> None:
    # one compiled driver, one pool: the width comes from each pass's
    # tables, and every width is bit-exact.  3 iterations at partime 2
    # is one full pass plus a one-step tail pass.
    spec = StencilSpec.star(dims, radius)
    shape = (10, 37) if dims == 2 else (6, 13, 21)
    cfg = BlockingConfig(
        dims=dims, radius=radius, bsize_x=16 if dims == 2 else 12,
        bsize_y=12 if dims == 3 else None, parvec=4, partime=2,
    )
    grids = [make_grid(shape, "random", seed=s) for s in (1, 2, 3)]
    want = [reference_run(g, spec, 3, boundary) for g in grids]
    driver = native_driver(spec, 2)
    try:
        for width in (1, 2, 4, 8, 16):
            (single,) = _drive(driver, cfg, grids[:1], 3, boundary, width)
            assert np.array_equal(single, want[0]), width
            batch = _drive(driver, cfg, grids, 3, boundary, width)
            for got, ref in zip(batch, want):
                assert np.array_equal(got, ref), width
    finally:
        driver.close()


@pytest.mark.parametrize("dims", [2, 3])
def test_driver_source_has_one_buffered_stage_kernel(dims) -> None:
    # every stage, the first included, runs stage_out: the read kernel
    # only copies, so the source holds one accumulation chain
    src = driver_source(StencilSpec.star(dims, 4))
    assert "static void stage(" not in src
    assert "stage_in" not in src
    assert src.count("float acc =") == 1
    assert "simdlen(1)" not in src
    assert src.count("#pragma omp simd\n") == 1


def _clamped_path_shapes(dims, radius, boundary):
    """Grids on which most x runs are clamped or wrapped: x extent at
    most ``2 * radius`` (clamp), or extents below the radius (periodic;
    a radius-1 grid can go no lower than 1)."""
    small = max(1, radius - 1)
    if boundary == "clamp":
        if dims == 2:
            return [(9, 2 * radius), (1, radius)]
        return [(5, 6, 2 * radius)]
    if dims == 2:
        return [(small, 2 * radius + 3), (9, small)]
    return [(small, 5, small)]


@needs_native
@pytest.mark.parametrize("boundary", ["clamp", "periodic"])
@pytest.mark.parametrize("partime", [1, 2, 3])
@pytest.mark.parametrize("radius", [1, 2, 3, 4])
@pytest.mark.parametrize("dims", [2, 3])
def test_clamped_runs_bit_exact(dims, radius, partime, boundary) -> None:
    spec = StencilSpec.star(dims, radius)
    cfg = BlockingConfig(
        dims=dims, radius=radius, bsize_x=64 if dims == 2 else 32,
        bsize_y=32 if dims == 3 else None, parvec=4, partime=partime,
    )
    iterations = 2 * partime + 1  # full passes and a short tail pass
    acc = FPGAAccelerator(spec, cfg, boundary=boundary, engine="native")
    try:
        for shape in _clamped_path_shapes(dims, radius, boundary):
            grids = [make_grid(shape, "mixed", seed=s) for s in (3, 4, 5)]
            want = [reference_run(g, spec, iterations, boundary) for g in grids]
            out, _ = acc.run(grids[0], iterations)
            assert np.array_equal(out, want[0]), shape
            batch = acc.run_batch(grids, iterations)
            assert batch.ok
            for got, ref in zip(batch.outputs, want):
                assert np.array_equal(got, ref), shape
    finally:
        acc.close()


@pytest.mark.parametrize("dims", [2, 3])
def test_driver_source_has_no_variable_length_array(dims, tmp_path) -> None:
    # a stack array sized by a grid or block extent overflows the thread
    # stack on a tall grid; -Wvla -Werror rejects any such array
    compiler = _find_compiler()
    if compiler is None:
        pytest.skip("no C compiler available")
    c_path = tmp_path / "driver.c"
    c_path.write_text(driver_source(StencilSpec.star(dims, 4)))
    proc = subprocess.run(
        [compiler, "-O0", "-c", "-Wvla", "-Werror",
         "-o", str(tmp_path / "driver.o"), str(c_path)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


_TALL_GRID_PROBE = """
import numpy as np
from repro.core import BlockingConfig, FPGAAccelerator, StencilSpec
from repro.core.reference import reference_run
spec = StencilSpec.star(2, 2)
cfg = BlockingConfig(dims=2, radius=2, bsize_x=64, parvec=4, partime=2)
rng = np.random.default_rng(0)
grids = [rng.standard_normal((400_000, 8)).astype(np.float32)
         for _ in range(2)]
want = [reference_run(g, spec, 3) for g in grids]
acc = FPGAAccelerator(spec, cfg, engine="native")
out, _ = acc.run(grids[0], 3)
batch = acc.run_batch(grids, 3)
acc.close()
assert np.array_equal(out, want[0])
assert batch.ok
assert all(np.array_equal(o, w) for o, w in zip(batch.outputs, want))
"""


@needs_native
def test_tall_grid_runs_on_a_small_stack() -> None:
    # 400,000 streamed rows on a 2 MiB stack: a per-row table on the
    # stack of the calling or a worker thread (3.2 MB of i64) would
    # overflow it and kill the process.  The stack limit is set for the
    # child so the outcome does not depend on the caller's `ulimit -s`.
    resource = pytest.importorskip("resource")

    def small_stack() -> None:
        _, hard = resource.getrlimit(resource.RLIMIT_STACK)
        limit = 2 << 20
        if hard != resource.RLIM_INFINITY:
            limit = min(limit, hard)
        resource.setrlimit(resource.RLIMIT_STACK, (limit, hard))

    env = dict(
        os.environ, PYTHONPATH=str(pathlib.Path(repro.__file__).parents[1])
    )
    proc = subprocess.run(
        [sys.executable, "-c", _TALL_GRID_PROBE],
        capture_output=True, text=True, timeout=600, env=env,
        preexec_fn=small_stack,
    )
    assert proc.returncode == 0, (proc.returncode, proc.stderr[-2000:])


#: ``(dims, bsize, blocked extent)`` geometries of one block each:
#: 128-byte 2D rows (chunks of 2048 planes), and 3D planes of 4 KiB
#: (64 planes) and 64 KiB (the floor of ``2 * radius`` planes).
_CHUNK_GEOMETRIES = [(2, 64, 20), (3, 32, 20), (3, 128, 116)]


@needs_native
@pytest.mark.parametrize("boundary", ["clamp", "periodic"])
@pytest.mark.parametrize("dims, bsize, extent", _CHUNK_GEOMETRIES)
def test_read_kernel_chunk_edges_bit_exact(
    dims, bsize, extent, boundary
) -> None:
    # streamed extents around the read kernel's chunk: 1, RAD - 1,
    # chunk - 1, chunk and chunk + 1, over full and tail passes
    radius, partime = 3, 2
    spec = StencilSpec.star(dims, radius)
    cfg = BlockingConfig(
        dims=dims, radius=radius, bsize_x=bsize,
        bsize_y=bsize if dims == 3 else None, parvec=4, partime=partime,
    )
    tail = (extent,) * (dims - 1)
    (block,) = get_pass_plan(cfg, (1,) + tail, boundary).blocks
    width = vector_width_for(cfg.parvec)
    plane = -(-block.footprint[-1] // width) * width
    for n in block.footprint[1:-1]:
        plane *= n
    chunk = max(2 * radius, READ_CHUNK_BYTES // (4 * plane))
    extents = sorted({1, radius - 1, chunk - 1, chunk, chunk + 1} - {0})
    iterations = 2 * partime + 1  # full passes and a short tail pass
    acc = FPGAAccelerator(spec, cfg, boundary=boundary, engine="native")
    try:
        for n0 in extents:
            grids = [
                make_grid((n0,) + tail, "mixed", seed=s) for s in (6, 7)
            ]
            want = [reference_run(g, spec, iterations, boundary) for g in grids]
            out, _ = acc.run(grids[0], iterations)
            assert np.array_equal(out, want[0]), n0
            batch = acc.run_batch(grids, iterations)
            assert batch.ok
            for got, ref in zip(batch.outputs, want):
                assert np.array_equal(got, ref), n0
    finally:
        acc.close()
