"""Shift-register on-chip buffer substrate (paper §III.A and eq. 7).

The FPGA design exploits the shifting access pattern of stencil streaming:
each PE keeps the last ``2 * rad`` rows (2D) or planes (3D) of its block in
a shift register inferred into Block RAMs.  Every cycle, ``parvec`` new
cells enter at the head and the oldest ``parvec`` cells fall off the tail;
all neighbor values of the ``parvec`` cells being updated are taps at fixed
offsets — which is why the structure maps to FPGA memories but not to
CPU/GPU caches.

Eq. 7 gives the register size in 32-bit words::

    2 * rad * bsize_x             + parvec      (2D)
    2 * rad * bsize_x * bsize_y   + parvec      (3D)

:func:`shift_register_words` is that size model; the area model, the
Fig. 2 architecture summary, the wave extension and
:class:`~repro.core.accelerator.AcceleratorStats` read it.
"""

from __future__ import annotations

from repro.core.blocking import BlockingConfig


def shift_register_words(config: BlockingConfig) -> int:
    """Shift-register size per PE in float32 words (paper eq. 7)."""
    if config.dims == 2:
        return 2 * config.radius * config.bsize_x + config.parvec
    assert config.bsize_y is not None
    return 2 * config.radius * config.bsize_x * config.bsize_y + config.parvec
