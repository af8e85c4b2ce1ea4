"""Tests for the generated native pass driver (repro.core.native)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import BlockingConfig, FPGAAccelerator, StencilSpec, make_grid
from repro.core.native import (
    DISABLE_ENV,
    SCALAR_FLAGS,
    driver_source,
    native_available,
    native_driver,
    vector_width_for,
)
from repro.core.pe import pe_step_padded
from repro.errors import ConfigurationError

needs_native = pytest.mark.skipif(
    not native_available(), reason="no C compiler available"
)


def test_kernel_source_is_deterministic_and_exact() -> None:
    spec = StencilSpec.star(3, 2)
    src = driver_source(spec, 4)
    assert src == driver_source(spec, 4)
    assert "#define VEC 4" in src
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
    a = native_driver(spec, 1, 4)
    b = native_driver(StencilSpec.star(2, 1), 1, 4)
    narrow = native_driver(spec, 1, 1)
    scalar = native_driver(spec, 1, 1, SCALAR_FLAGS)
    try:
        assert a is not b  # own pools...
        assert a.lib_path == b.lib_path  # ...one compiled library
        # the width and the flags are part of the build key
        assert len({a.lib_path, narrow.lib_path, scalar.lib_path}) == 3
    finally:
        for d in (a, b, narrow, scalar):
            d.close()


def test_disable_env_forces_fallback(monkeypatch) -> None:
    monkeypatch.setenv(DISABLE_ENV, "1")
    assert not native_available()
    assert native_driver(StencilSpec.star(2, 4), 1, 4) is None
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
    assert fast._driver is not None and fast._driver.vector_width == 4
    assert slow.resolved_engine == "numpy"
    for iters in (1, 3, 4):
        out_fast, _ = fast.run(grid, iters)
        out_slow, _ = slow.run(grid, iters)
        assert np.array_equal(out_fast, out_slow)
    fast.close()
