"""Single Processing Element (PE) semantics.

Each PE in the paper's accelerator advances its input stream by exactly one
time step.  Functionally, applying the chain of ``partime`` PEs to one
overlapped spatial block is: starting from the block's read footprint
(compute region + ``partime * rad`` halo per blocked side), apply one
stencil step per PE over a window that *shrinks* by ``rad`` per blocked
side per step — except at global grid borders, where the clamp boundary
condition keeps the window pinned to the border.

:func:`pe_step` implements one such step over an extended local block,
fully vectorized; :func:`refresh_border_duplicates` re-establishes the
clamp duplicates that represent out-of-grid neighbor reads, which must
track the border cell's *current* value between steps.

The hot path of the pass-plan engine avoids per-stage allocation: the
block lives inside a persistent scratch buffer pre-padded by ``rad`` along
the streamed axis, :func:`fill_stream_halo` refreshes only the pad slabs
(instead of ``np.pad`` copying the whole block), and
:func:`pe_step_padded` accumulates in place via ``np.multiply(...,
out=)`` / ``+=`` — the identical elementwise operation sequence as the
allocating form, so float32 results stay bit-for-bit equal to
:func:`repro.core.reference.reference_step`.
"""

from __future__ import annotations

import numpy as np

from repro.core.reference import _axis_of
from repro.core.stencil import StencilSpec

#: Type alias: per-axis (lo, hi) local window bounds.
Window = tuple[tuple[int, int], ...]


def fill_stream_halo(
    padded: np.ndarray, interior: int, rad: int, boundary: str = "clamp"
) -> None:
    """Refresh the streamed-axis pad slabs of ``padded`` in place.

    ``padded`` holds ``interior`` live rows/planes at ``padded[rad:rad +
    interior]`` plus ``rad`` pad slabs on each end.  Clamp duplicates the
    border slab (``np.pad`` edge mode); periodic wraps the opposite end
    (wrap mode).  Must run before every :func:`pe_step_padded` call,
    since the interior changes between chain stages.  The generated pass
    driver's ``fill_halo`` (:func:`repro.core.native.driver_source`)
    reimplements exactly these slab-copy semantics in C.
    """
    lo = padded[:rad]
    hi = padded[rad + interior :]
    live = padded[rad : rad + interior]
    if boundary == "clamp":
        lo[...] = live[:1]
        hi[...] = live[interior - 1 :]
    elif interior >= rad:
        lo[...] = live[interior - rad :]
        hi[...] = live[:rad]
    else:
        # extent smaller than the radius: wrap slab by slab (np.pad's
        # periodic-tiling semantics)
        for i in range(rad):
            lo[i] = live[(interior - rad + i) % interior]
            hi[i] = live[i % interior]


def stencil_terms(
    spec: StencilSpec, ndim: int
) -> tuple[tuple[int, int, np.float32], ...]:
    """Precompiled ``(axis, signed offset, float32 coeff)`` per neighbor term.

    In the paper's fixed accumulation order (:meth:`StencilSpec.offsets`).
    Deriving these once per run keeps enum/attribute lookups out of the
    per-chunk hot loop.  This tuple is the bit-exactness contract: the
    NumPy engine iterates it directly, and every stage of the generated
    native pass driver emits its accumulation chain from it via one
    generator (``repro.core.native._acc_chain``), so every engine
    performs the identical sequence of separately rounded float32
    operations.
    """
    return tuple(
        (
            _axis_of(direction, ndim),
            direction.sign * distance,
            np.float32(spec.coefficient(direction, distance)),
        )
        for direction, distance in spec.offsets()
    )


def pe_step_padded(
    padded: np.ndarray,
    spec: StencilSpec,
    window: Window,
    out: np.ndarray | None = None,
    tmp: np.ndarray | None = None,
    terms: tuple[tuple[int, int, np.float32], ...] | None = None,
) -> np.ndarray:
    """One stencil step over ``window`` of an already stream-padded block.

    ``padded`` is the extended block padded by ``spec.radius`` slabs on
    the streamed axis only (axis 0), with the pad slabs already filled
    (:func:`fill_stream_halo` or ``np.pad``); ``window`` is in *interior*
    coordinates (local index 0 = first live slab).  When ``out`` and
    ``tmp`` are given (window-shaped float32 scratch, non-aliasing with
    ``padded``), the accumulation runs in place with zero allocation;
    both forms execute the identical elementwise sequence ``acc = c0 *
    v0; acc += c_i * v_i ...`` so the float32 bits never differ.
    """
    ndim = padded.ndim
    rad = spec.radius
    if terms is None:
        terms = stencil_terms(spec, ndim)

    def view(offset_axis: int = -1, offset: int = 0) -> np.ndarray:
        slices = []
        for ax in range(ndim):
            lo, hi = window[ax]
            base = rad if ax == 0 else 0
            shift = offset if ax == offset_axis else 0
            slices.append(slice(lo + base + shift, hi + base + shift))
        return padded[tuple(slices)]

    center = np.float32(spec.center)
    if out is None:
        acc = center * view()
    else:
        acc = np.multiply(view(), center, out=out)
    for axis, offset, coeff in terms:
        neighbor = view(axis, offset)
        if tmp is None:
            acc += coeff * neighbor
        else:
            np.multiply(neighbor, coeff, out=tmp)
            acc += tmp
    return acc


def pe_step(
    cur: np.ndarray,
    spec: StencilSpec,
    window: Window,
    boundary: str = "clamp",
) -> np.ndarray:
    """One stencil time step over ``window`` of the extended block ``cur``.

    ``window[axis] = (lo, hi)`` are local bounds; axis 0 is the streamed
    axis, where the window always spans the whole extent and out-of-range
    neighbor reads follow ``boundary`` (edge padding for the paper's
    clamp, wrap for periodic).  Along blocked axes the caller guarantees
    that ``window +- radius`` stays inside ``cur`` — this is exactly the
    overlapped-blocking shrink invariant.

    Returns the new values for the window (a new array of the window's
    shape).  The accumulation order matches :func:`reference_step`
    elementwise, so float32 results are bit-identical to the reference.
    (This is the allocating convenience form; the pass-plan engine calls
    :func:`pe_step_padded` directly on a persistent scratch buffer.)
    """
    rad = spec.radius
    pad_width = [(rad, rad) if ax == 0 else (0, 0) for ax in range(cur.ndim)]
    mode = "edge" if boundary == "clamp" else "wrap"
    padded = np.pad(cur, pad_width, mode=mode)
    return pe_step_padded(padded, spec, window)


def refresh_border_duplicates(
    cur: np.ndarray,
    axis: int,
    west_dup: int,
    east_dup: int,
) -> None:
    """Refresh clamp duplicates along a blocked ``axis`` in place.

    ``west_dup`` local positions at the low end of ``axis`` represent
    out-of-grid coordinates and must equal the border cell's value (the
    cell at local index ``west_dup``); symmetrically for ``east_dup`` at
    the high end.  In the hardware this is what the generated boundary-
    condition code achieves by redirecting out-of-bound shift-register
    reads to the border cell.
    """
    if west_dup > 0:
        sl_dst = [slice(None)] * cur.ndim
        sl_src = [slice(None)] * cur.ndim
        sl_dst[axis] = slice(0, west_dup)
        sl_src[axis] = slice(west_dup, west_dup + 1)
        cur[tuple(sl_dst)] = cur[tuple(sl_src)]
    if east_dup > 0:
        n = cur.shape[axis]
        sl_dst = [slice(None)] * cur.ndim
        sl_src = [slice(None)] * cur.ndim
        sl_dst[axis] = slice(n - east_dup, n)
        sl_src[axis] = slice(n - east_dup - 1, n - east_dup)
        cur[tuple(sl_dst)] = cur[tuple(sl_src)]
