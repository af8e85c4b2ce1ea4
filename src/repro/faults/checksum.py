"""Checksum primitives for the detection machinery.

CRC32 stands in for the per-block checksums a hardened design would
compute in the read/write kernels and for the ECC bits BRAM and DRAM
controllers maintain.  ``zlib.crc32`` runs at memory speed in C, so the
armed-mode integrity checks stay cheap relative to the simulation.
"""

from __future__ import annotations

import zlib

import numpy as np


def crc32_array(array: np.ndarray) -> int:
    """CRC32 of an array's raw bytes (layout-normalised).

    Equal to ``zlib.crc32(array.tobytes())``, but a C-contiguous array is
    hashed in place, through a byte view of its buffer, with no copy.
    """
    flat = np.ascontiguousarray(array).reshape(-1)
    return zlib.crc32(flat.view(np.uint8))
