"""Plan pass: prove PassPlan invariants without executing a pass.

A :class:`repro.core.plan.PassPlan` is a *schedule* — if its geometry is
wrong, every pass executed from it is wrong, so the invariants are worth
proving ahead of time.  This pass re-derives each invariant from first
principles (block bounds, boundary semantics, eq. 2) rather than calling
back into the plan's own construction helpers, and never gathers,
updates or writes a single cell:

* P301 — the write slices partition the grid: every cell of every
  blocked axis is written by exactly one block.
* P302 — the per-stage shrink windows nest: every neighbor read at
  stage ``s`` lands inside the stage ``s-1`` window or in a clamp
  duplicate refreshed from it (the overlapped-blocking correctness
  invariant, checked for every pass length ``1..partime``).
* P303 — clamp-duplicate counts match the boundary spec
  (``max(0, halo - start)`` / ``max(0, stop + halo - extent)`` under
  clamp; all zero under periodic).
* P304 — the gather segments tile the read footprint and reproduce the
  clamped/wrapped source indices exactly.  The native driver's read
  kernel copies these runs verbatim (a one-cell clamp broadcast or a
  contiguous copy), so they alone place its blocked-axis halo.
* P305 — the final stage of a full pass lands exactly on the compute
  region the write kernel copies out (``read_sl``).
* P306 — every flat int64 driver table a run can build
  (:meth:`PassPlan.to_driver_tables` for ``steps in {1, partime}`` and
  ``vector_width in {1, 2, 8, vector_width_for(parvec)}``) decodes back
  to exactly the Python-side geometry — per-block records,
  gather-segment rows, shrink windows — and keeps the padding the
  driver's alignment relies on: ``padded_x = roundup(max x footprint,
  width)``, scratch sized by the exact padded formula and rounded to
  ``max(width, 16)`` floats (so per-worker ping/pong bases stay 64-byte
  aligned), and every block's own padded footprint fitting it.  The
  generated native pass driver executes *only* these tables, and they
  are the only place the width lives, so a serialization slip would
  silently corrupt every fused pass; this check proves the round-trip
  without executing one.
* P307 — the slab layout the driver is given
  (:func:`repro.core.native.slab_layout` of a
  ``(n_grids, *grid_shape)`` slab of a :class:`repro.core.batch.
  BatchPlan`) has one grid per batch entry, C-order grid strides, and a
  grid stride covering the grid's cells, so no two grids overlap.
  Batching must change scheduling, never geometry: with P306 this
  proves a pass over the slab executes exactly ``n_grids`` copies of
  the already-proved plan.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.core.batch import BatchPlan
from repro.core.native import slab_layout, vector_width_for
from repro.core.plan import DRIVER_RECORD_LEN, PassPlan
from repro.lint.findings import Finding


def _plan_locus(plan: PassPlan) -> str:
    c = plan.config
    shape = "x".join(str(s) for s in plan.grid_shape)
    return (
        f"plan[{c.dims}d-rad{c.radius}-t{c.partime}-{plan.boundary}"
        f"-{shape}]"
    )


def _check_partition(plan: PassPlan, locus: str) -> list[Finding]:
    """P301: write slices cover every blocked cell exactly once."""
    findings: list[Finding] = []
    extents = [plan.grid_shape[ax] for ax in plan.config.blocked_axes]
    # Joint coverage over the blocked-extent product grid: an exact
    # once-each proof, not a per-axis heuristic.  The streamed axis is
    # always slice(None) and contributes no partitioning.
    coverage = np.zeros(tuple(extents), dtype=np.int32)
    for i, bp in enumerate(plan.blocks):
        slices: list[slice] = []
        out_of_bounds = False
        for local_axis, axis in enumerate(plan.config.blocked_axes):
            sl = bp.write_sl[axis]
            extent = extents[local_axis]
            if not (
                isinstance(sl.start, int)
                and isinstance(sl.stop, int)
                and 0 <= sl.start < sl.stop <= extent
            ):
                findings.append(
                    Finding(
                        rule="P301",
                        message=f"block {i} write slice {sl} is out of "
                        f"bounds for extent {extent} (axis {axis})",
                        locus=locus,
                        hint="slices outside the grid are silently "
                        "clipped by NumPy, hiding lost writes",
                    )
                )
                out_of_bounds = True
            slices.append(sl)
        if not out_of_bounds:
            coverage[tuple(slices)] += 1
    if findings:
        return findings
    uncovered = int(np.count_nonzero(coverage == 0))
    multi = int(np.count_nonzero(coverage > 1))
    if uncovered or multi:
        first = tuple(
            int(v) for v in np.argwhere(coverage != 1)[0]
        )
        findings.append(
            Finding(
                rule="P301",
                message=f"{uncovered} blocked cell(s) never written, "
                f"{multi} written more than once (first bad cell "
                f"{first}, count {int(coverage[first])})",
                locus=locus,
                hint="the block write slices must partition the grid "
                "exactly once",
            )
        )
    return findings


def _check_duplicates(plan: PassPlan, locus: str) -> list[Finding]:
    """P303: dup counts re-derived from block bounds and the boundary."""
    findings: list[Finding] = []
    halo = plan.config.halo
    extents = [plan.grid_shape[ax] for ax in plan.config.blocked_axes]
    for i, bp in enumerate(plan.blocks):
        for local_axis, extent in enumerate(extents):
            start = bp.block.starts[local_axis]
            stop = bp.block.stops[local_axis]
            if plan.periodic:
                want_lo, want_hi = 0, 0
            else:
                want_lo = max(0, halo - start)
                want_hi = max(0, stop + halo - extent)
            got_lo = bp.dup_lo[local_axis]
            got_hi = bp.dup_hi[local_axis]
            if (got_lo, got_hi) != (want_lo, want_hi):
                findings.append(
                    Finding(
                        rule="P303",
                        message=f"block {i} axis {local_axis}: "
                        f"dup_lo/dup_hi = ({got_lo}, {got_hi}), boundary "
                        f"{plan.boundary!r} implies ({want_lo}, {want_hi})",
                        locus=locus,
                        hint="the PE chain refreshes exactly the clamped "
                        "halo cells between stages; wrong counts corrupt "
                        "border values",
                    )
                )
    return findings


def _check_segments(plan: PassPlan, locus: str) -> list[Finding]:
    """P304: segments tile the footprint and match re-derived indices."""
    findings: list[Finding] = []
    halo = plan.config.halo
    extents = [plan.grid_shape[ax] for ax in plan.config.blocked_axes]
    for i, bp in enumerate(plan.blocks):
        for local_axis, extent in enumerate(extents):
            start = bp.block.starts[local_axis]
            stop = bp.block.stops[local_axis]
            width = bp.footprint[1 + local_axis]
            raw = np.arange(start - halo, stop + halo)
            if plan.periodic:
                expected = np.mod(raw, extent)
            else:
                expected = np.clip(raw, 0, extent - 1)
            if width != expected.size:
                findings.append(
                    Finding(
                        rule="P304",
                        message=f"block {i} axis {local_axis}: footprint "
                        f"width {width} != halo-extended block width "
                        f"{expected.size}",
                        locus=locus,
                        hint="footprint = (stop - start) + 2 * halo per "
                        "blocked axis",
                    )
                )
                continue
            rebuilt = np.full(width, -1, dtype=np.int64)
            cursor = 0
            ok = True
            for seg in bp.segments[local_axis]:
                if seg.dst_start != cursor or seg.dst_stop <= seg.dst_start:
                    ok = False
                    break
                cursor = seg.dst_stop
                src = np.arange(seg.src_start, seg.src_stop)
                if src.size == 1:
                    rebuilt[seg.dst_start:seg.dst_stop] = src[0]
                elif src.size == seg.dst_stop - seg.dst_start:
                    rebuilt[seg.dst_start:seg.dst_stop] = src
                else:
                    ok = False
                    break
                if seg.src_start < 0 or seg.src_stop > extent:
                    ok = False
                    break
            if not ok or cursor != width:
                findings.append(
                    Finding(
                        rule="P304",
                        message=f"block {i} axis {local_axis}: segments "
                        "do not tile the footprint contiguously",
                        locus=locus,
                        hint="every local cell must be gathered exactly "
                        "once, in order",
                    )
                )
                continue
            if not np.array_equal(rebuilt, expected):
                first = int(np.flatnonzero(rebuilt != expected)[0])
                findings.append(
                    Finding(
                        rule="P304",
                        message=f"block {i} axis {local_axis}: gathered "
                        f"source index at local {first} is "
                        f"{int(rebuilt[first])}, boundary "
                        f"{plan.boundary!r} implies {int(expected[first])}",
                        locus=locus,
                        hint="segments must reproduce the clamped/wrapped "
                        "halo indices: the driver's read kernel copies "
                        "exactly these runs into the first stage's buffer",
                    )
                )
    return findings


def _check_windows(plan: PassPlan, locus: str) -> list[Finding]:
    """P302/P305: window nesting and final-stage placement."""
    findings: list[Finding] = []
    rad = plan.config.radius
    partime = plan.config.partime
    n_blocked = len(plan.config.blocked_axes)
    for steps in range(1, partime + 1):
        table = plan.windows(steps)
        if len(table) != len(plan.blocks):
            findings.append(
                Finding(
                    rule="P302",
                    message=f"windows({steps}) has {len(table)} block "
                    f"entries for {len(plan.blocks)} blocks",
                    locus=locus,
                )
            )
            continue
        for i, (bp, per_stage) in enumerate(zip(plan.blocks, table)):
            b_locus = f"{locus}/block{i}"
            if len(per_stage) != steps:
                findings.append(
                    Finding(
                        rule="P302",
                        message=f"windows({steps}) has {len(per_stage)} "
                        f"stages for block {i}",
                        locus=b_locus,
                    )
                )
                continue
            for s, window in enumerate(per_stage, start=1):
                for local_axis in range(n_blocked):
                    lo, hi = window[1 + local_axis]
                    width = bp.footprint[1 + local_axis]
                    dup_lo = bp.dup_lo[local_axis]
                    dup_hi = bp.dup_hi[local_axis]
                    if not (0 <= lo < hi <= width):
                        findings.append(
                            Finding(
                                rule="P302",
                                message=f"stage {s} axis {local_axis}: "
                                f"window ({lo}, {hi}) escapes the "
                                f"footprint [0, {width})",
                                locus=b_locus,
                                hint="stage windows must stay inside the "
                                "gathered block",
                            )
                        )
                        continue
                    if s == 1:
                        prev_lo, prev_hi = 0, width
                    else:
                        prev_lo, prev_hi = per_stage[s - 2][1 + local_axis]
                    # Left reads [lo - rad, lo) must come from the
                    # previous stage's window or from clamp duplicates
                    # refreshed out of it.
                    left_ok = lo - rad >= prev_lo or (
                        lo - rad >= 0
                        and prev_lo <= dup_lo
                        and dup_lo < prev_hi
                    )
                    right_ok = hi + rad <= prev_hi or (
                        hi + rad <= width
                        and prev_hi >= width - dup_hi
                        and width - dup_hi - 1 >= prev_lo
                    )
                    if not (left_ok and right_ok):
                        findings.append(
                            Finding(
                                rule="P302",
                                message=f"steps={steps} stage {s} axis "
                                f"{local_axis}: window ({lo}, {hi}) reads "
                                f"radius-{rad} neighbors outside stage "
                                f"{s - 1}'s window ({prev_lo}, {prev_hi}) "
                                f"with dup=({dup_lo}, {dup_hi})",
                                locus=b_locus,
                                hint="the shrink schedule must keep every "
                                "neighbor read inside already-valid cells",
                            )
                        )
            # P305: the final stage of a full pass must land exactly on
            # the compute region the write kernel copies out.
            if steps == partime:
                final = per_stage[-1]
                stream_extent = bp.footprint[0]
                want: list[tuple[int, int]] = [(0, stream_extent)]
                for local_axis, axis in enumerate(plan.config.blocked_axes):
                    rs = bp.read_sl[axis]
                    want.append((rs.start, rs.stop))
                if tuple(final) != tuple(want):
                    findings.append(
                        Finding(
                            rule="P305",
                            message=f"final stage window {tuple(final)} != "
                            f"compute region {tuple(want)} (read_sl)",
                            locus=b_locus,
                            hint="after partime steps the window must "
                            "shrink exactly to the cells written back",
                        )
                    )
                ws_width = tuple(
                    bp.write_sl[axis].stop - bp.write_sl[axis].start
                    for axis in plan.config.blocked_axes
                )
                rs_width = tuple(
                    bp.read_sl[axis].stop - bp.read_sl[axis].start
                    for axis in plan.config.blocked_axes
                )
                if ws_width != rs_width:
                    findings.append(
                        Finding(
                            rule="P305",
                            message=f"write slice widths {ws_width} != "
                            f"read slice widths {rs_width}",
                            locus=b_locus,
                            hint="the write kernel copies read_sl onto "
                            "write_sl; mismatched widths drop or smear "
                            "cells",
                        )
                    )
    return findings


def _check_driver_tables(plan: PassPlan, locus: str) -> list[Finding]:
    """P306: every driver table a run can build decodes to the plan.

    The one compiled driver executes *only* these flat int64 tables —
    for ``steps in {1, partime}`` (a full and a tail pass), at whatever
    SIMD width the accelerator pads rows to — so each such table must
    decode back to exactly the plan's block records, gather-segment
    rows and shrink windows, and its padding (the only place the width
    lives) must follow the exact formulas the driver's row strides and
    per-worker scratch bases are derived from.  The build-time
    assertions inside ``to_driver_tables`` cannot see a cached tables
    object tampered after construction; this check re-derives
    everything from the blocks and the config.
    """
    findings: list[Finding] = []
    ndim = plan.config.dims
    rad = plan.config.radius
    rec_len = DRIVER_RECORD_LEN[ndim]
    n_blocked = ndim - 1
    # per-axis maxima re-derived from the blocks, not the plan's own
    # cached max_footprint (the point is an independent derivation)
    max_fp = tuple(
        max(bp.footprint[ax] for bp in plan.blocks) for ax in range(ndim)
    )
    for steps, vec in itertools.product(
        sorted({1, plan.config.partime}),
        sorted({1, 2, 8, vector_width_for(plan.config.parvec)}),
    ):
        tables = plan.to_driver_tables(steps, vec)
        t_locus = f"{locus}/tables(steps={steps},vec={vec})"

        def bad(message: str, hint: str = "", _loc=t_locus) -> None:
            findings.append(
                Finding(rule="P306", message=message, locus=_loc, hint=hint)
            )

        shapes_ok = True
        for name, arr, want_shape in (
            ("blocks", tables.blocks, (len(plan.blocks), rec_len)),
            ("segments", tables.segments, (tables.segments.shape[0], 4)),
            ("windows", tables.windows,
             (len(plan.blocks), steps, ndim, 2)),
        ):
            if arr.dtype != np.int64 or arr.shape != want_shape:
                bad(
                    f"{name} table is {arr.dtype}{arr.shape}, the driver "
                    f"unpacks int64{want_shape}",
                    hint="the C side indexes raw int64 pointers; any "
                    "shape or dtype drift misreads every field after it",
                )
                shapes_ok = False
        if tables.steps != steps:
            bad(f"tables.steps is {tables.steps}, requested {steps}")
            shapes_ok = False
        if tables.vector_width != vec:
            bad(
                f"tables.vector_width is {tables.vector_width}, built "
                f"for width {vec}",
                hint="the driver pads every row stride to this field at "
                "run time; a width the scratch was not sized for "
                "misaligns the rows or overruns the scratch",
            )
            shapes_ok = False
        if not shapes_ok:
            continue

        # windows must be byte-for-byte the Python shrink schedule, so
        # no stage window reaches into the padded lanes either
        expected_windows = np.asarray(plan.windows(steps), dtype=np.int64)
        if not np.array_equal(
            tables.windows, expected_windows.reshape(tables.windows.shape)
        ):
            bad(
                "windows table differs from PassPlan.windows()",
                hint="the driver's per-stage bounds come only from this "
                "table; a drifted window breaks the nesting invariant "
                "P302 already proved for the Python schedule, and one "
                "reaching into the padded lanes folds garbage into the "
                "accumulation",
            )

        # padding: the exact roundups the driver derives its row
        # strides and per-worker ping/pong bases from
        want_padded = -(-max_fp[-1] // vec) * vec
        if tables.padded_x != want_padded:
            bad(
                f"padded_x {tables.padded_x} != roundup(max x footprint "
                f"{max_fp[-1]}, {vec}) = {want_padded}",
                hint="too small truncates the widest block's rows; too "
                "large silently oversizes every scratch row",
            )
        want_scratch = max_fp[0] + 2 * rad
        for extent in max_fp[1:-1]:
            want_scratch *= extent
        want_scratch *= want_padded
        unit = max(vec, 16)
        want_scratch = -(-want_scratch // unit) * unit
        if tables.scratch_floats != want_scratch:
            bad(
                f"scratch_floats {tables.scratch_floats} != "
                f"roundup((max t-extent + 2*rad) * middle extents * "
                f"padded_x, {unit}) = {want_scratch}",
                hint="undersized scratch lets the PE chain write past "
                "the allocation; worker w's buffers start at w * "
                "scratch_floats, so the roundup to max(vec, 16) floats "
                "keeps every worker's bases 64-byte aligned",
            )

        for i, bp in enumerate(plan.blocks):
            rec = [int(v) for v in tables.blocks[i]]
            b_locus = f"{t_locus}/block{i}"

            def bbad(message: str, hint: str = "", _loc=b_locus) -> None:
                findings.append(
                    Finding(rule="P306", message=message, locus=_loc,
                            hint=hint)
                )

            pos = 0
            footprint = tuple(rec[pos:pos + ndim])
            pos += ndim
            if footprint != tuple(bp.footprint):
                bbad(f"record footprint {footprint} != plan footprint "
                     f"{tuple(bp.footprint)}")
            dups = rec[pos:pos + 2 * n_blocked]
            pos += 2 * n_blocked
            want_dups = [
                v
                for local_axis in range(n_blocked)
                for v in (bp.dup_lo[local_axis], bp.dup_hi[local_axis])
            ]
            if dups != want_dups:
                bbad(f"record dup counts {dups} != plan (lo, hi) pairs "
                     f"{want_dups}")
            write_starts = rec[pos:pos + n_blocked]
            pos += n_blocked
            write_widths = rec[pos:pos + n_blocked]
            pos += n_blocked
            read_starts = rec[pos:pos + n_blocked]
            pos += n_blocked
            for local_axis, axis in enumerate(plan.config.blocked_axes):
                ws, rs = bp.write_sl[axis], bp.read_sl[axis]
                got = (
                    write_starts[local_axis],
                    write_widths[local_axis],
                    read_starts[local_axis],
                )
                want = (ws.start, ws.stop - ws.start, rs.start)
                if got != want:
                    bbad(
                        f"axis {local_axis}: (write start, width, read "
                        f"start) {got} != plan slices {want}",
                        hint="the driver's writeback memcpys are computed "
                        "from these three fields",
                    )
            for local_axis in range(n_blocked):
                off, cnt = rec[pos], rec[pos + 1]
                pos += 2
                segs = bp.segments[local_axis]
                if cnt != len(segs) or off < 0 or (
                    off + cnt > tables.segments.shape[0]
                ):
                    bbad(
                        f"axis {local_axis}: segment range (off={off}, "
                        f"cnt={cnt}) does not address {len(segs)} plan "
                        "segments",
                    )
                    continue
                want_rows = np.asarray(
                    [
                        (s.dst_start, s.dst_stop, s.src_start, s.src_stop)
                        for s in segs
                    ],
                    dtype=np.int64,
                ).reshape(-1, 4)
                if not np.array_equal(
                    tables.segments[off:off + cnt], want_rows
                ):
                    bbad(
                        f"axis {local_axis}: segment rows "
                        f"[{off}:{off + cnt}] differ from the plan's "
                        "gather segments",
                        hint="the driver's read kernel replays exactly "
                        "these (dst, src) runs",
                    )
            # the C re-derives each block's own row stride as
            # roundup(nx, vec): its padded footprint must fit the scratch
            need = bp.footprint[0] + 2 * rad
            for extent in bp.footprint[1:-1]:
                need *= extent
            need *= -(-bp.footprint[-1] // vec) * vec
            if need > tables.scratch_floats:
                bbad(
                    f"block needs {need} floats at width {vec}, scratch "
                    f"holds {tables.scratch_floats}",
                    hint="an undersized scratch buffer lets the PE chain "
                    "write past the allocation",
                )
    return findings


def _check_slab_layout(bplan: BatchPlan, locus: str) -> list[Finding]:
    """P307: the slab layout the driver is given keeps grids apart.

    Derives ``(n_grids, grid_stride, gs0, gs1)`` exactly as
    :meth:`~repro.core.native.NativeDriver.run_pass` does — through
    :func:`~repro.core.native.slab_layout` of a slab of the plan's
    shape (allocated, never touched) — and checks it against the
    grid shape: the C driver reaches grid ``g`` at ``g * grid_stride``
    floats, so that stride must cover a whole grid.
    """
    findings: list[Finding] = []
    shape = bplan.plan.grid_shape
    cells = 1
    for extent in shape:
        cells *= extent
    slab = np.empty(bplan.slab_shape, dtype=np.float32)
    n_grids, grid_stride, gs0, gs1 = slab_layout(slab, len(shape))
    want_rows = (cells // shape[0], shape[2] if len(shape) == 3 else 0)

    def bad(message: str, hint: str = "") -> None:
        findings.append(
            Finding(rule="P307", message=message, locus=locus, hint=hint)
        )

    if n_grids != bplan.n_grids:
        bad(f"the driver sees {n_grids} grids, the batch has {bplan.n_grids}")
    if grid_stride < cells:
        bad(
            f"grid_stride {grid_stride} < grid cells {cells}: "
            "consecutive grids overlap in the slab",
            hint="workers claiming different grids would scribble on "
            "each other's cells",
        )
    if (gs0, gs1) != want_rows:
        bad(
            f"grid strides (gs0, gs1) = {(gs0, gs1)} are not the "
            f"C-order strides {want_rows} of a {shape} grid",
            hint="the driver's gather and write-back index every grid "
            "with these strides and the plan's geometry",
        )
    return findings


def lint_plan(plan: PassPlan) -> list[Finding]:
    """Prove the plan's geometric invariants; never executes a pass."""
    locus = _plan_locus(plan)
    findings: list[Finding] = []
    findings.extend(_check_partition(plan, locus))
    findings.extend(_check_duplicates(plan, locus))
    findings.extend(_check_segments(plan, locus))
    findings.extend(_check_windows(plan, locus))
    findings.extend(_check_driver_tables(plan, locus))
    return findings


def lint_batch_plan(bplan: BatchPlan) -> list[Finding]:
    """Prove a batch plan: the per-grid invariants plus the P307
    slab layout."""
    findings = lint_plan(bplan.plan)
    locus = f"batch[{bplan.n_grids}x]{_plan_locus(bplan.plan)}"
    findings.extend(_check_slab_layout(bplan, locus))
    return findings
