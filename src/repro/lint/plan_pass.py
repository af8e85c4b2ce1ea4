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
  clamped/wrapped source indices exactly.
* P305 — the final stage of a full pass lands exactly on the compute
  region the write kernel copies out (``read_sl``).
* P306 — the flat int64 driver tables (:meth:`PassPlan.to_driver_tables`)
  decode back to exactly the Python-side geometry: per-block records,
  gather-segment rows, shrink windows and scratch sizing.  The generated
  native pass driver executes *only* these tables, so a serialization
  slip would silently corrupt every fused pass; this check proves the
  round-trip without executing one.
* P307 — the *batched* driver tables (:meth:`repro.core.batch.BatchPlan.
  to_batch_tables`) round-trip to the per-grid plan: the embedded tables
  are byte-identical to the single-grid serialization, the flat
  ``(grid, block)`` claim-counter decomposition is bijective over
  ``n_grids * n_blocks`` units, and consecutive grids sit at disjoint
  slab offsets (``grid_stride >= prod(grid_shape)``).  Batching must
  change scheduling, never geometry — this check proves a batched pass
  executes exactly ``n_grids`` copies of the already-proved plan.
* P308 — a :class:`repro.core.sharding.ShardPlan` decomposes exactly:
  shard interiors tile the streamed axis once each, every halo row is
  fed by exactly one exchange edge, every edge ships ``config.halo``
  rows sourced from inside the sender's interior, and the global rows a
  halo tracks equal the global rows its source strip owns (modulo the
  extent under periodic boundaries).  This is the no-execution proof
  that the sharded runner's exchange reconstructs the single-device
  run's neighborhoods bit-for-bit.
* P309 — the *vectorized* driver tables (``to_driver_tables(steps,
  vector_width)``) keep the alignment invariants the simd kernels are
  compiled against: ``padded_x = roundup(max x footprint, width)``,
  scratch sized by the exact padded formula and rounded to
  ``max(width, 16)`` floats (so per-worker ping/pong bases stay 64-byte
  aligned), every block's own padded footprint fitting the shared
  scratch — and the padding is layout-only: the geometry arrays are
  byte-identical to the scalar serialization and no stage window
  reaches into the padded lanes.  The build-time assertions inside
  ``to_driver_tables`` prove these at construction; this check re-proves
  them from first principles against the cached tables object the
  driver actually executes.
"""

from __future__ import annotations

import numpy as np

from repro.core.batch import BatchPlan
from repro.core.native import vector_width_for
from repro.core.plan import DRIVER_RECORD_LEN, PassPlan
from repro.core.sharding import ShardPlan
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
                        "halo indices",
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
    """P306: the flat driver tables decode back to the plan geometry."""
    findings: list[Finding] = []
    ndim = plan.config.dims
    rad = plan.config.radius
    rec_len = DRIVER_RECORD_LEN[ndim]
    n_blocked = ndim - 1
    for steps in sorted({1, plan.config.partime}):
        tables = plan.to_driver_tables(steps)
        t_locus = f"{locus}/tables(steps={steps})"

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
        if not shapes_ok:
            continue

        # windows must be byte-for-byte the Python shrink schedule
        expected_windows = np.asarray(plan.windows(steps), dtype=np.int64)
        if not np.array_equal(
            tables.windows, expected_windows.reshape(tables.windows.shape)
        ):
            bad(
                "windows table differs from PassPlan.windows()",
                hint="the driver's per-stage bounds come only from this "
                "table; a drifted window breaks the nesting invariant "
                "P302 already proved for the Python schedule",
            )

        max_scratch = 0
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
            need = bp.footprint[0] + 2 * rad
            for extent in bp.footprint[1:]:
                need *= extent
            max_scratch = max(max_scratch, need)
        if tables.scratch_floats < max_scratch:
            bad(
                f"scratch_floats {tables.scratch_floats} < largest padded "
                f"block footprint {max_scratch}",
                hint="an undersized scratch buffer lets the PE chain "
                "write past the allocation",
            )
    return findings


def _check_vector_tables(plan: PassPlan, locus: str) -> list[Finding]:
    """P309: vectorized tables keep alignment; padding is layout-only.

    The native driver pads each scratch row's x stride to a multiple
    of the vector width so every row base stays on a vector boundary,
    and sizes the ping-pong halves so per-worker bases keep (at least)
    64-byte alignment.  Those invariants are *asserted* at table-build
    time inside :meth:`PassPlan.to_driver_tables`; this check re-proves
    them from first principles — block footprints, the config's radius,
    the roundup formulas — against the tables object the driver would
    actually execute (the build-time assertions cannot see a cached
    tables object tampered after construction).  It also proves the
    padding is a pure layout change: the geometry arrays must be
    byte-identical to the scalar serialization, and no stage window may
    reach into the padded lanes.
    """
    findings: list[Finding] = []
    rad = plan.config.radius
    steps = plan.config.partime
    scalar = plan.to_driver_tables(steps)
    # re-derive the per-axis maxima from the blocks, not the plan's own
    # cached max_footprint (the point is an independent derivation)
    ndim = plan.config.dims
    max_fp = tuple(
        max(bp.footprint[ax] for bp in plan.blocks) for ax in range(ndim)
    )
    for vec in sorted({2, 8, vector_width_for(plan.config.parvec)} - {1}):
        tables = plan.to_driver_tables(steps, vec)
        t_locus = f"{locus}/tables(steps={steps},vec={vec})"

        def bad(message: str, hint: str = "", _loc=t_locus) -> None:
            findings.append(
                Finding(rule="P309", message=message, locus=_loc, hint=hint)
            )

        if tables.vector_width != vec:
            bad(
                f"tables.vector_width is {tables.vector_width}, built "
                f"for width {vec}",
                hint="the generated C sizes every row stride from this "
                "field; a drifted width misaligns every row after the "
                "first",
            )
            continue
        want_padded = -(-max_fp[-1] // vec) * vec
        if tables.padded_x != want_padded:
            bad(
                f"padded_x {tables.padded_x} != roundup(max x footprint "
                f"{max_fp[-1]}, {vec}) = {want_padded}",
                hint="too small truncates the widest block's rows; too "
                "large silently oversizes every scratch row",
            )
        if tables.padded_x % vec or tables.padded_x < max_fp[-1]:
            bad(
                f"padded_x {tables.padded_x} is not a whole-vector cover "
                f"of the x footprint {max_fp[-1]}",
                hint="a misaligned stride breaks the aligned-load "
                "contract the simd kernels are compiled against",
            )
        # scratch capacity: re-derive the exact sizing formula
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
                hint="undersized scratch lets a vector store run past "
                "the allocation; the roundup to max(vec, 16) floats "
                "keeps per-worker ping/pong bases 64-byte aligned",
            )
        if tables.scratch_floats % vec:
            bad(
                f"scratch_floats {tables.scratch_floats} is not a "
                f"multiple of the vector width {vec}",
                hint="worker w's buffers start at w * scratch_floats; "
                "an unaligned capacity misaligns every worker but the "
                "first",
            )
        # every block must fit: the C re-derives each block's own row
        # stride as roundup(nx, vec)
        for i, bp in enumerate(plan.blocks):
            need = bp.footprint[0] + 2 * rad
            for extent in bp.footprint[1:-1]:
                need *= extent
            need *= -(-bp.footprint[-1] // vec) * vec
            if need > tables.scratch_floats:
                bad(
                    f"block {i} needs {need} floats at width {vec}, "
                    f"scratch holds {tables.scratch_floats}",
                    hint="per-block padded footprints must fit the "
                    "shared scratch sizing",
                    _loc=f"{t_locus}/block{i}",
                )
        # layout-only: the padding must not perturb the geometry the
        # driver decodes — byte-identical to the scalar serialization
        for name, got, want in (
            ("blocks", tables.blocks, scalar.blocks),
            ("segments", tables.segments, scalar.segments),
            ("windows", tables.windows, scalar.windows),
        ):
            if got.shape != want.shape or not np.array_equal(got, want):
                bad(
                    f"{name} table differs from the vector_width=1 "
                    "serialization",
                    hint="x padding is a pure layout change; geometry "
                    "drift means the vector engine computes a different "
                    "stencil than the scalar one it must be bit-exact "
                    "against",
                )
        # the padded lanes are never addressed by a stencil term: every
        # stage window stays inside the unpadded block footprint
        if tables.windows.shape == (len(plan.blocks), steps, ndim, 2):
            for i, bp in enumerate(plan.blocks):
                x_stops = tables.windows[i, :, -1, 1]
                if int(x_stops.max(initial=0)) > bp.footprint[-1]:
                    bad(
                        f"block {i}: a stage window reaches x="
                        f"{int(x_stops.max())} past the unpadded "
                        f"footprint {bp.footprint[-1]}",
                        hint="padded lanes hold unspecified values; a "
                        "window covering them folds garbage into the "
                        "accumulation",
                        _loc=f"{t_locus}/block{i}",
                    )
    return findings


def _check_batch_tables(bplan: BatchPlan, locus: str) -> list[Finding]:
    """P307: batch tables round-trip to the per-grid plan."""
    findings: list[Finding] = []
    plan = bplan.plan

    cells = 1
    for extent in bplan.grid_shape:
        cells *= extent

    def bad(message: str, hint: str = "", _loc: str | None = None) -> None:
        findings.append(
            Finding(
                rule="P307",
                message=message,
                locus=_loc if _loc is not None else locus,
                hint=hint,
            )
        )

    if bplan.grid_stride < cells:
        bad(
            f"grid_stride {bplan.grid_stride} < grid cells {cells}: "
            "consecutive grids overlap in the slab",
            hint="workers claiming different grids would scribble on "
            "each other's cells",
        )
    offsets = bplan.offsets()
    want_offsets = tuple(
        g * bplan.grid_stride for g in range(bplan.n_grids)
    )
    if offsets != want_offsets:
        bad(
            f"slab offsets {offsets[:4]}... are not "
            "0, stride, 2*stride, ...",
            hint="the C worker computes g * grid_stride; offsets must "
            "agree with it",
        )

    # rebuild the per-grid plan from scratch: comparing against the
    # bplan's own (cached) tables object would prove nothing
    fresh = PassPlan(plan.config, plan.grid_shape, plan.boundary)
    for steps in sorted({1, plan.config.partime}):
        bt = bplan.to_batch_tables(steps)
        t_locus = f"{locus}/batch_tables(steps={steps})"
        single = fresh.to_driver_tables(steps)
        if bt.n_grids != bplan.n_grids or bt.n_grids < 1:
            bad(
                f"tables carry n_grids={bt.n_grids}, plan has "
                f"{bplan.n_grids}",
                _loc=t_locus,
            )
        if bt.grid_stride != bplan.grid_stride:
            bad(
                f"tables carry grid_stride={bt.grid_stride}, plan has "
                f"{bplan.grid_stride}",
                _loc=t_locus,
            )
        # the batch extension is ONLY the two scalars: the embedded
        # per-grid tables must be byte-identical to the single-grid
        # serialization P306 already proved
        for name, got, want in (
            ("blocks", bt.tables.blocks, single.blocks),
            ("segments", bt.tables.segments, single.segments),
            ("windows", bt.tables.windows, single.windows),
        ):
            if got.dtype != want.dtype or not np.array_equal(got, want):
                bad(
                    f"embedded {name} table differs from the single-grid "
                    "serialization",
                    hint="batching must change scheduling, never the "
                    "per-grid geometry the driver executes",
                    _loc=t_locus,
                )
        if (
            bt.tables.steps != single.steps
            or bt.tables.scratch_floats != single.scratch_floats
        ):
            bad(
                f"embedded scalars (steps={bt.tables.steps}, "
                f"scratch_floats={bt.tables.scratch_floats}) differ from "
                f"single-grid ({single.steps}, {single.scratch_floats})",
                _loc=t_locus,
            )
        # the flat claim-counter decomposition must be a bijection onto
        # (grid, block) pairs — mirrors the C worker's t -> (g, b)
        n_blocks = bt.n_blocks
        if bt.n_units != bplan.n_grids * n_blocks:
            bad(
                f"n_units {bt.n_units} != n_grids * n_blocks "
                f"({bplan.n_grids} * {n_blocks})",
                _loc=t_locus,
            )
        else:
            claimed = [
                bt.unit_to_grid_block(t) for t in range(bt.n_units)
            ]
            want_units = [
                (g, b)
                for g in range(bplan.n_grids)
                for b in range(n_blocks)
            ]
            if claimed != want_units:
                first = next(
                    (i for i, (c, w) in enumerate(zip(claimed, want_units))
                     if c != w),
                    0,
                )
                bad(
                    f"unit decomposition is not the (grid, block) "
                    f"bijection (first bad unit {first}: "
                    f"{claimed[first]} != {want_units[first]})",
                    hint="a skewed decode makes some blocks run twice "
                    "and others never",
                    _loc=t_locus,
                )
    return findings


def _check_shard_geometry(plan: ShardPlan, locus: str) -> list[Finding]:
    """P308: partition, halo tiling and exchange-source exactness."""
    findings: list[Finding] = []
    extent = plan.grid_shape[0]
    halo = plan.halo

    def bad(message: str, hint: str = "") -> None:
        findings.append(
            Finding(rule="P308", message=message, locus=locus, hint=hint)
        )

    # interiors tile the streamed axis exactly once
    coverage = np.zeros(extent, dtype=np.int32)
    for shard in plan.shards:
        if not 0 <= shard.start < shard.stop <= extent:
            bad(
                f"shard {shard.index} interior [{shard.start}, "
                f"{shard.stop}) is out of bounds for extent {extent}",
                hint="out-of-range interiors silently clip on gather, "
                "losing rows",
            )
            continue
        coverage[shard.start:shard.stop] += 1
    uncovered = int(np.count_nonzero(coverage == 0))
    multi = int(np.count_nonzero(coverage > 1))
    if uncovered or multi:
        bad(
            f"{uncovered} streamed row(s) owned by no shard, {multi} by "
            "more than one",
            hint="shard interiors must partition axis 0 exactly once",
        )

    # every halo zone is fed by exactly one incoming edge, and every
    # edge ships `halo` rows from strictly inside its sender's interior
    incoming: dict[int, np.ndarray] = {
        s.index: np.zeros(s.sub_rows, dtype=np.int32) for s in plan.shards
    }
    for shard in plan.shards:
        # the interior never receives exchange rows
        incoming[shard.index][shard.interior] += 1
    for edge in plan.edges:
        src, dst = plan.shards[edge.src], plan.shards[edge.dst]
        s_lo, s_hi = edge.src_rows
        d_lo, d_hi = edge.dst_rows
        if s_hi - s_lo != halo or d_hi - d_lo != halo:
            bad(
                f"edge {edge.name} ships {s_hi - s_lo} -> {d_hi - d_lo} "
                f"rows; the exchange depth is partime * radius = {halo}",
                hint="a thin strip leaves stale halo cells for the next "
                "pass to read",
            )
            continue
        if not (src.halo_lo <= s_lo and s_hi <= src.halo_lo + src.rows):
            bad(
                f"edge {edge.name} sources rows [{s_lo}, {s_hi}) outside "
                f"the sender's interior "
                f"[{src.halo_lo}, {src.halo_lo + src.rows})",
                hint="halo rows are garbage after a pass; strips must "
                "come from freshly-computed interior cells only",
            )
            continue
        if not 0 <= d_lo < d_hi <= dst.sub_rows:
            bad(
                f"edge {edge.name} lands on rows [{d_lo}, {d_hi}) outside "
                f"the receiver's sub-grid [0, {dst.sub_rows})"
            )
            continue
        incoming[edge.dst][d_lo:d_hi] += 1
        # the global rows the halo tracks must be the global rows the
        # source strip owns (mod extent under periodic wrap)
        src_global = np.arange(s_lo, s_hi) + (src.start - src.halo_lo)
        dst_global = np.arange(d_lo, d_hi) + (dst.start - dst.halo_lo)
        if plan.periodic:
            src_global = np.mod(src_global, extent)
            dst_global = np.mod(dst_global, extent)
        if not np.array_equal(src_global, dst_global):
            bad(
                f"edge {edge.name}: source strip owns global rows "
                f"[{int(src_global[0])}, {int(src_global[-1])}] but the "
                f"halo tracks [{int(dst_global[0])}, "
                f"{int(dst_global[-1])}]",
                hint="a skewed exchange feeds the stencil its neighbor "
                "rows from the wrong place — bit-exactness is lost "
                "silently",
            )
    for shard in plan.shards:
        cover = incoming[shard.index]
        wrong = np.flatnonzero(cover != 1)
        if wrong.size:
            first = int(wrong[0])
            bad(
                f"shard {shard.index} local row {first} is covered "
                f"{int(cover[first])} times (interior plus incoming "
                "edges must cover every sub-grid row exactly once)",
                hint="an unfed halo row reads stale cells; a doubly-fed "
                "one depends on exchange order",
            )
    return findings


def lint_shard_plan(plan: ShardPlan) -> list[Finding]:
    """Prove a shard plan's exchange geometry; never moves a cell."""
    c = plan.config
    shape = "x".join(str(s) for s in plan.grid_shape)
    locus = (
        f"shards[{plan.n_shards}x-{c.dims}d-rad{c.radius}-t{c.partime}"
        f"-{plan.boundary}-{shape}]"
    )
    return _check_shard_geometry(plan, locus)


def lint_plan(plan: PassPlan) -> list[Finding]:
    """Prove the plan's geometric invariants; never executes a pass."""
    locus = _plan_locus(plan)
    findings: list[Finding] = []
    findings.extend(_check_partition(plan, locus))
    findings.extend(_check_duplicates(plan, locus))
    findings.extend(_check_segments(plan, locus))
    findings.extend(_check_windows(plan, locus))
    findings.extend(_check_driver_tables(plan, locus))
    findings.extend(_check_vector_tables(plan, locus))
    return findings


def lint_batch_plan(bplan: BatchPlan) -> list[Finding]:
    """Prove a batch plan: the per-grid invariants plus the P307
    batched-tables round-trip."""
    findings = lint_plan(bplan.plan)
    locus = f"batch[{bplan.n_grids}x]{_plan_locus(bplan.plan)}"
    findings.extend(_check_batch_tables(bplan, locus))
    return findings
