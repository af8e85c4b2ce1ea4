"""The benchmark's own arithmetic: percentiles, the rate and the bit check."""

from __future__ import annotations

import math

import numpy as np

#: A percentile is reported only when at least this many samples lie
#: beyond it; below that it is one or two outliers, not a tail.
MIN_TAIL_SAMPLES = 10


def samples_beyond(n: int, pct: float) -> int:
    """How many of ``n`` sorted samples rank above the ``pct``-th percentile."""
    return n - math.ceil(n * pct / 100.0)


def percentile(samples, pct: float) -> float:
    """The ``pct``-th percentile (linear interpolation, NumPy's default).

    Raises ``ValueError`` for an empty sample, and for any percentile
    above the median with fewer than :data:`MIN_TAIL_SAMPLES` samples
    beyond it, so a tail figure always rests on a tail.
    """
    n = len(samples)
    if n == 0:
        raise ValueError("no samples")
    if pct > 50 and samples_beyond(n, pct) < MIN_TAIL_SAMPLES:
        raise ValueError(
            f"p{pct:g} needs {MIN_TAIL_SAMPLES} samples beyond it; "
            f"{n} samples give {samples_beyond(n, pct)}"
        )
    return float(np.percentile(np.asarray(samples, dtype=np.float64), pct))


def window_rate(count: int, window: tuple[float, float]) -> float:
    """Completions per second over the whole measured window.

    Every completion observed in ``window`` counts, so a stall anywhere
    in it lowers the rate.
    """
    w0, w1 = window
    if w1 <= w0:
        raise ValueError(f"empty window {window}")
    return count / (w1 - w0)


def bit_exact(result, golden: np.ndarray) -> bool:
    """True when ``result`` holds exactly the bits of ``golden``.

    Compares the float32 payloads as integers, so ``-0.0`` against
    ``0.0`` and differing NaN payloads count as mismatches.
    """
    if result is None:
        return False
    result = np.asarray(result)
    if result.dtype != np.float32 or result.shape != golden.shape:
        return False
    return bool(
        np.array_equal(
            np.ascontiguousarray(result).view(np.uint32),
            np.ascontiguousarray(golden).view(np.uint32),
        )
    )
