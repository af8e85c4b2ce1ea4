"""Tests for grid allocation helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.grid import PATTERNS, make_grid
from repro.errors import ConfigurationError


@pytest.mark.parametrize("pattern", PATTERNS)
@pytest.mark.parametrize("shape", [(8, 16), (4, 6, 10)])
def test_patterns_shape_dtype(pattern: str, shape: tuple[int, ...]) -> None:
    grid = make_grid(shape, pattern)
    assert grid.shape == shape
    assert grid.dtype == np.float32


def test_random_is_seeded_and_bounded() -> None:
    a = make_grid((16, 16), "random", seed=7)
    b = make_grid((16, 16), "random", seed=7)
    c = make_grid((16, 16), "random", seed=8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert float(a.min()) >= 0.0 and float(a.max()) < 1.0


def test_constant_and_impulse() -> None:
    g = make_grid((4, 4), "constant", value=3.5)
    assert np.all(g == np.float32(3.5))
    imp = make_grid((5, 5), "impulse", value=2.0)
    assert imp[2, 2] == np.float32(2.0)
    assert float(imp.sum()) == pytest.approx(2.0)


def test_gradient_monotone_along_x() -> None:
    g = make_grid((3, 10), "gradient")
    assert np.all(np.diff(g, axis=-1) >= 0)
    assert g[0, 0] == 0.0 and g[0, -1] == pytest.approx(1.0)


def test_invalid_inputs() -> None:
    with pytest.raises(ConfigurationError):
        make_grid((8,), "random")
    with pytest.raises(ConfigurationError):
        make_grid((8, 0), "random")
    with pytest.raises(ConfigurationError):
        make_grid((8, 8), "nope")
