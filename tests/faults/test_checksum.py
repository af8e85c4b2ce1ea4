"""CRC32 of arrays: the same value as hashing ``tobytes()``, for any layout."""

from __future__ import annotations

import zlib
from types import SimpleNamespace

import numpy as np
import pytest

from repro.faults import checksum
from repro.faults.checksum import crc32_array

_BASE = np.arange(60, dtype=np.float32).reshape(3, 4, 5) / 7


@pytest.mark.parametrize(
    "array",
    [
        _BASE,
        np.asfortranarray(_BASE),
        _BASE[:, 1:3, ::2],
        _BASE[::-1],
        np.array(2.5, dtype=np.float32),
        np.zeros((0, 4), dtype=np.float32),
        np.arange(10, dtype=np.int64),
        np.array(["2026-01-01"], dtype="datetime64[D]"),
    ],
    ids=["c-contiguous", "fortran", "sliced", "reversed", "0-d", "empty",
         "int64", "datetime"],
)
def test_crc32_array_matches_tobytes(array) -> None:
    assert crc32_array(array) == zlib.crc32(array.tobytes())


def test_crc32_array_hashes_a_c_contiguous_buffer_in_place(monkeypatch) -> None:
    grid = np.random.default_rng(0).random((64, 64), dtype=np.float32)
    seen = []

    def crc32(data):
        seen.append(data)
        return zlib.crc32(data)

    monkeypatch.setattr(checksum, "zlib", SimpleNamespace(crc32=crc32))
    assert crc32_array(grid) == zlib.crc32(grid.tobytes())
    assert np.shares_memory(seen[0], grid)
