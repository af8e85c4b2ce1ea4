"""Tests for the eq. 7 shift-register size model."""

from __future__ import annotations

from repro.core.blocking import BlockingConfig
from repro.core.shift_register import shift_register_words


def test_size_model_eq7_2d() -> None:
    cfg = BlockingConfig(dims=2, radius=3, bsize_x=4096, parvec=4, partime=1)
    assert shift_register_words(cfg) == 2 * 3 * 4096 + 4


def test_size_model_eq7_3d() -> None:
    cfg = BlockingConfig(
        dims=3, radius=2, bsize_x=256, bsize_y=128, parvec=16, partime=1
    )
    assert shift_register_words(cfg) == 2 * 2 * 256 * 128 + 16


def test_size_grows_linearly_with_radius() -> None:
    """Paper §V.A expectation: register size proportional to radius."""
    sizes = []
    for rad in (1, 2, 4):
        cfg = BlockingConfig(dims=2, radius=rad, bsize_x=1024, parvec=4, partime=1)
        sizes.append(shift_register_words(cfg) - 4)  # strip the parvec term
    assert sizes[1] == 2 * sizes[0]
    assert sizes[2] == 4 * sizes[0]
