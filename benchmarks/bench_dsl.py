"""Benchmarks: the DSL front-end."""

from __future__ import annotations

import numpy as np

from repro.core import make_grid
from repro.dsl import Equation, Grid, compile_equation, to_stencil_spec


def test_dsl_lowering(benchmark) -> None:
    u = Grid("u", dims=2)
    eq = Equation(
        u,
        0.6 * u(0, 0)
        + 0.1 * u(0, -1) + 0.1 * u(0, 1)
        + 0.1 * u(-1, 0) + 0.1 * u(1, 0),
    )
    spec = benchmark(to_stencil_spec, eq)
    assert spec.radius == 1


def test_dsl_compiled_kernel(benchmark) -> None:
    u = Grid("u", dims=2)
    eq = Equation(
        u,
        0.6 * u(0, 0)
        + 0.1 * u(0, -1) + 0.1 * u(0, 1)
        + 0.1 * u(-1, 0) + 0.1 * u(1, 0),
    )
    kernel = compile_equation(eq)
    grid = make_grid((24, 32), "random", seed=3)
    dst = np.empty(grid.size, np.float32)
    benchmark(kernel, grid.ravel().copy(), dst, grid.shape)
    assert np.isfinite(dst).all()
