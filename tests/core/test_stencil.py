"""Tests for the stencil specification and Table I characteristics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.stencil import (
    BYTES_PER_CELL,
    Direction,
    StencilSpec,
    directions_for,
    spec_key,
)
from repro.errors import ConfigurationError

# Table I of the paper: (dims, radius) -> (FLOP/cell, B/cell, FLOP/B)
TABLE_I = {
    (2, 1): (9, 8, 1.125),
    (2, 2): (17, 8, 2.125),
    (2, 3): (25, 8, 3.125),
    (2, 4): (33, 8, 4.125),
    (3, 1): (13, 8, 1.625),
    (3, 2): (25, 8, 3.125),
    (3, 3): (37, 8, 4.625),
    (3, 4): (49, 8, 6.125),
}


@pytest.mark.parametrize(("dims", "radius"), sorted(TABLE_I))
def test_table1_characteristics(dims: int, radius: int) -> None:
    """FLOP/cell, bytes/cell and FLOP/byte reproduce Table I exactly."""
    spec = StencilSpec.star(dims, radius)
    flop, byte, intensity = TABLE_I[(dims, radius)]
    assert spec.flops_per_cell == flop
    assert spec.bytes_per_cell == byte
    assert spec.flop_per_byte == pytest.approx(intensity)


@pytest.mark.parametrize(("dims", "radius"), sorted(TABLE_I))
def test_fmul_fadd_split(dims: int, radius: int) -> None:
    """Paper §IV.A: 2*dims*rad+1 FMUL and 2*dims*rad FADD per update."""
    spec = StencilSpec.star(dims, radius)
    assert spec.fmul_per_cell == 2 * dims * radius + 1
    assert spec.fadd_per_cell == 2 * dims * radius
    assert spec.fmul_per_cell + spec.fadd_per_cell == spec.flops_per_cell


def test_shared_coefficients_reduce_only_fmul() -> None:
    """Shared mode (paper §V.A): FADD count unchanged, FMUL reduced."""
    spec = StencilSpec.star(3, 3)
    shared = StencilSpec.star(3, 3, shared_coefficients=True)
    assert shared.fadd_per_cell == spec.fadd_per_cell
    assert shared.fmul_per_cell < spec.fmul_per_cell
    assert shared.fmul_per_cell == 3 * 3 + 1


def test_directions_2d_3d() -> None:
    assert directions_for(2) == (
        Direction.WEST,
        Direction.EAST,
        Direction.SOUTH,
        Direction.NORTH,
    )
    assert len(directions_for(3)) == 6
    with pytest.raises(ConfigurationError):
        directions_for(4)


def test_direction_axis_and_sign() -> None:
    assert Direction.WEST.axis_name == "x" and Direction.WEST.sign == -1
    assert Direction.EAST.axis_name == "x" and Direction.EAST.sign == 1
    assert Direction.SOUTH.axis_name == "y" and Direction.SOUTH.sign == -1
    assert Direction.NORTH.axis_name == "y" and Direction.NORTH.sign == 1
    assert Direction.BELOW.axis_name == "z" and Direction.BELOW.sign == -1
    assert Direction.ABOVE.axis_name == "z" and Direction.ABOVE.sign == 1


def test_offsets_accumulation_order() -> None:
    """Offsets follow the paper's order: per distance, W E S N (B A)."""
    spec = StencilSpec.star(2, 2)
    offsets = spec.offsets()
    assert offsets[:4] == [
        (Direction.WEST, 1),
        (Direction.EAST, 1),
        (Direction.SOUTH, 1),
        (Direction.NORTH, 1),
    ]
    assert offsets[4][1] == 2
    assert len(offsets) == spec.ndirs * spec.radius


def test_npoints() -> None:
    assert StencilSpec.star(2, 3).npoints == 1 + 4 * 3
    assert StencilSpec.star(3, 4).npoints == 1 + 6 * 4


def test_default_coefficients_distinct_and_normalized() -> None:
    """Worst-case stencil: all coefficients distinct; sum ~ 1 (fixed point)."""
    spec = StencilSpec.star(3, 4)
    flat = spec.coefficients.ravel()
    assert len(np.unique(flat)) == flat.size
    assert spec.coefficient_sum() == pytest.approx(1.0, abs=1e-6)


def test_coefficient_accessor_and_bounds() -> None:
    spec = StencilSpec.star(2, 2)
    assert spec.coefficient(Direction.WEST, 1) == float(spec.coefficients[0, 0])
    with pytest.raises(ConfigurationError):
        spec.coefficient(Direction.WEST, 0)
    with pytest.raises(ConfigurationError):
        spec.coefficient(Direction.WEST, 3)


def test_from_axis_coefficients_symmetric() -> None:
    axis = np.array([[0.1, 0.05], [0.2, 0.02]], dtype=np.float32)
    spec = StencilSpec.from_axis_coefficients(2, axis, center=0.26)
    assert spec.radius == 2
    assert spec.shared_coefficients
    assert spec.coefficient(Direction.WEST, 1) == spec.coefficient(Direction.EAST, 1)
    assert spec.coefficient(Direction.SOUTH, 2) == spec.coefficient(Direction.NORTH, 2)


def test_invalid_specs_rejected() -> None:
    with pytest.raises(ConfigurationError):
        StencilSpec.star(4, 1)
    with pytest.raises(ConfigurationError):
        StencilSpec.star(2, 0)
    with pytest.raises(ConfigurationError):
        StencilSpec(
            dims=2, radius=2, center=0.5, coefficients=np.zeros((4, 3), np.float32)
        )
    with pytest.raises(ConfigurationError):
        StencilSpec.from_axis_coefficients(2, np.zeros((3, 2)), center=1.0)


def test_coefficients_immutable() -> None:
    spec = StencilSpec.star(2, 1)
    with pytest.raises(ValueError):
        spec.coefficients[0, 0] = 99.0


def test_spec_key_is_built_once_on_the_compiled_center() -> None:
    coeffs = StencilSpec.star(2, 1).coefficients
    spec = StencilSpec(2, 1, 0.1, coeffs)
    key = spec_key(spec)
    assert key == (2, 1, float(np.float32(0.1)), coeffs.tobytes())
    assert spec_key(spec) is key
    # centers that round to one float32 compute the same cells
    nudged = StencilSpec(2, 1, 0.1 + 1e-12, coeffs)
    assert spec_key(nudged) == key


def test_describe_mentions_key_facts() -> None:
    text = StencilSpec.star(3, 2).describe()
    assert "3D" in text and "radius 2" in text and "25 FLOP" in text


def test_bytes_per_cell_constant() -> None:
    """Table I: byte/cell is 8 for every order (full spatial reuse)."""
    for dims in (2, 3):
        for rad in range(1, 7):
            assert StencilSpec.star(dims, rad).bytes_per_cell == BYTES_PER_CELL


def test_high_radius_supported() -> None:
    """The kernel parameterizes radius; radii beyond the paper's 4 work."""
    spec = StencilSpec.star(3, 6)
    assert spec.flops_per_cell == 12 * 6 + 1
