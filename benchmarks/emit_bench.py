#!/usr/bin/env python
"""Emit ``BENCH_engines.json``: before/after numbers for the hot path.

The "before" engine is a faithful reimplementation of the pre-pass-plan
simulator loop (per-pass geometry derivation, fancy-indexed gather with a
copy, per-stage ``np.pad`` and a freshly allocated ``pe_step`` output).
The "after" engines are the shipped :class:`repro.core.FPGAAccelerator`
engines: the pure-NumPy pass-plan engine (``plan-numpy``), the native
pass driver swept across its persistent worker pool sizes
(``native-w1`` / ``-w2`` / ``-w4``, rows padded to the config's SIMD
width), the driver at its default pool size with no ``workers=``
passed (``native-auto`` — one worker per CPU this process may use,
which is what the runtime serves with), and the same driver source at
``VEC=1`` compiled with vectorization off (``native-scalar``, one
worker — the honest per-lane SIMD baseline).  Every engine's output is
verified bit-identical to the legacy engine before any timing is
recorded.

Each case records:

* ``simd_speedup`` — ``native-w1`` vs ``native-scalar`` GCell/s, one
  worker each.  This is the paper's ``parvec`` metric (vector vs scalar
  machine code for the same source and arithmetic); the ``--gate``
  requires it to be >= 2x on the 3D radius-4 case.
* ``scaling_efficiency`` — the ``native-w4`` to ``native-w1`` GCell/s
  ratio, i.e. how much the 4-thread pool actually buys on this host.
  On a single-core runner this hovers near 1.0 by construction
  (``cpu_count`` is recorded in the payload so readers can tell), so
  the ``--gate`` scaling check only arms itself when
  ``os.cpu_count() >= 4``.

Usage::

    PYTHONPATH=src python benchmarks/emit_bench.py            # full run
    PYTHONPATH=src python benchmarks/emit_bench.py --quick    # CI smoke
    PYTHONPATH=src python benchmarks/emit_bench.py --quick --gate

``--gate`` fails the run if the driver's SIMD speedup over its
scalar build drops below 2x on the 3D case, or (on hosts with >= 4
CPUs) if 4-worker scaling efficiency drops below 1.5x.

The JSON lands in the repository root by default (``--out`` overrides).
Throughput is reported as GCell/s = cell updates / wall-clock / 1e9.
"""

from __future__ import annotations

import argparse
import json
import os
import time
from pathlib import Path

import numpy as np

from repro.core import BlockingConfig, FPGAAccelerator, StencilSpec, make_grid
from repro.core.blocking import BlockDecomposition
from repro.core.native import native_available, usable_cpus
from repro.core.pe import pe_step, refresh_border_duplicates
from repro.errors import ConfigurationError

#: persistent-pool sizes swept for the fused driver (ISSUE: 1/2/4)
WORKER_SWEEP = (1, 2, 4)


# --------------------------------------------------------------------- #
# the "before" engine: the pre-pass-plan hot path, verbatim semantics
# --------------------------------------------------------------------- #


def _legacy_gather(src: np.ndarray, index_arrays: list[np.ndarray]) -> np.ndarray:
    if src.ndim == 2:
        (ix,) = index_arrays
        return src[:, ix].copy()
    iy, ix = index_arrays
    return src[:, iy[:, None], ix[None, :]].copy()


def legacy_run(
    grid: np.ndarray,
    spec: StencilSpec,
    config: BlockingConfig,
    iterations: int,
    boundary: str = "clamp",
) -> np.ndarray:
    """The old simulator loop: geometry rederived every pass, gather via
    fancy indexing + copy, one ``np.pad`` allocation per PE stage."""
    grid = np.ascontiguousarray(grid, dtype=np.float32)
    decomp = BlockDecomposition(config, grid.shape)
    halo = config.halo
    rad = config.radius
    blocked_axes = config.blocked_axes
    extents = [grid.shape[ax] for ax in blocked_axes]
    periodic = boundary == "periodic"

    current = grid
    remaining = iterations
    while remaining > 0:
        steps = min(config.partime, remaining)
        out = np.empty_like(current)
        for block in decomp:
            index_arrays, dup_lo, dup_hi = [], [], []
            for (start, stop), extent in zip(
                zip(block.starts, block.stops), extents
            ):
                raw = np.arange(start - halo, stop + halo)
                if periodic:
                    index_arrays.append(np.mod(raw, extent))
                    dup_lo.append(0)
                    dup_hi.append(0)
                else:
                    index_arrays.append(np.clip(raw, 0, extent - 1))
                    dup_lo.append(max(0, -(start - halo)))
                    dup_hi.append(max(0, (stop + halo) - extent))
            cur = _legacy_gather(current, index_arrays)
            for s in range(1, steps + 1):
                window: list[tuple[int, int]] = [(0, cur.shape[0])]
                rem = (steps - s) * rad
                for local_axis, extent in enumerate(extents):
                    start = block.starts[local_axis]
                    stop = block.stops[local_axis]
                    if periodic:
                        lo_g, hi_g = start - rem, stop + rem
                    else:
                        lo_g = max(0, start - rem)
                        hi_g = min(extent, stop + rem)
                    base = start - halo
                    window.append((lo_g - base, hi_g - base))
                new_vals = pe_step(cur, spec, tuple(window), boundary)
                cur[tuple(slice(lo, hi) for lo, hi in window)] = new_vals
                if not periodic:
                    for local_axis, axis in enumerate(blocked_axes):
                        refresh_border_duplicates(
                            cur, axis, dup_lo[local_axis], dup_hi[local_axis]
                        )
            write_sl = [slice(None)] * grid.ndim
            read_sl = [slice(None)] * grid.ndim
            for local_axis, axis in enumerate(blocked_axes):
                start, stop = block.starts[local_axis], block.stops[local_axis]
                write_sl[axis] = slice(start, stop)
                read_sl[axis] = slice(halo, halo + (stop - start))
            out[tuple(write_sl)] = cur[tuple(read_sl)]
        current = out
        remaining -= steps
    return current


# --------------------------------------------------------------------- #
# harness
# --------------------------------------------------------------------- #


def _time(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def run_case(name, spec, cfg, shape, iterations, repeats):
    grid = make_grid(shape, "random", seed=0)
    updates = grid.size * iterations

    golden = legacy_run(grid, spec, cfg, iterations)
    engines: dict[str, object] = {
        "legacy": lambda: legacy_run(grid, spec, cfg, iterations),
        "plan-numpy": FPGAAccelerator(spec, cfg, engine="numpy"),
    }
    if native_available():
        for n in WORKER_SWEEP:
            try:
                engines[f"native-w{n}"] = FPGAAccelerator(
                    spec, cfg, engine="native", workers=n
                )
            except ConfigurationError:
                break  # driver compile failed; skip the whole sweep
        if "native-w1" in engines:
            engines["native-auto"] = FPGAAccelerator(spec, cfg, engine="native")
        try:
            engines["native-scalar"] = FPGAAccelerator(
                spec, cfg, engine="native-scalar", workers=1
            )
        except ConfigurationError:
            pass  # scalar-build baseline unavailable; ratio omitted

    results = {}
    for label, engine in engines.items():
        if callable(engine):
            out = engine()
            fn = engine
        else:
            out, _ = engine.run(grid, iterations)

            def fn(acc=engine):
                acc.run(grid, iterations)
        if not np.array_equal(out, golden):
            raise SystemExit(f"{name}/{label}: output differs from legacy bits")
        seconds = _time(fn, repeats)
        if not callable(engine):
            engine.close()
        results[label] = {
            "seconds": round(seconds, 4),
            "gcell_s": round(updates / seconds / 1e9, 4),
        }
        print(f"  {name:14s} {label:16s} {seconds:8.3f}s  "
              f"{results[label]['gcell_s']:7.3f} GCell/s")

    scaling = None
    w1 = results.get("native-w1")
    w4 = results.get("native-w4")
    if w1 and w4:
        scaling = round(w4["gcell_s"] / w1["gcell_s"], 3)
        print(f"  {name:14s} scaling efficiency (w4/w1): {scaling:.3f}x")

    simd_speedup = None
    scalar = results.get("native-scalar")
    if w1 and scalar:
        simd_speedup = round(w1["gcell_s"] / scalar["gcell_s"], 3)
        print(f"  {name:14s} SIMD speedup (native-w1 vs scalar build): "
              f"{simd_speedup:.3f}x")

    legacy_s = results["legacy"]["seconds"]
    return {
        "name": name,
        "grid_shape": list(shape),
        "dims": spec.dims,
        "radius": spec.radius,
        "iterations": iterations,
        "config": {
            "bsize_x": cfg.bsize_x,
            "bsize_y": cfg.bsize_y,
            "parvec": cfg.parvec,
            "partime": cfg.partime,
        },
        "results": results,
        "scaling_efficiency": scaling,
        "simd_speedup": simd_speedup,
        "speedup_vs_legacy": {
            label: round(legacy_s / r["seconds"], 2)
            for label, r in results.items()
            if label != "legacy"
        },
    }


def apply_gate(cases: list[dict]) -> list[str]:
    """Return regression-gate failure messages (empty = pass).

    Two checks per case: the driver must deliver >= 2x its own
    *scalar build* on the 3D radius-4 case (the SIMD speedup — single
    worker, so this is a per-core claim); and on hosts with at least 4
    CPUs the 4-worker pool must deliver >= 1.5x the single-worker
    throughput.  The scaling check is skipped (with a note) on smaller
    hosts, where extra workers cannot help.
    """
    failures = []
    many_cores = (os.cpu_count() or 1) >= 4
    for case in cases:
        name = case["name"]
        simd = case.get("simd_speedup")
        if name.startswith("3d-radius4") and simd is not None and simd < 2.0:
            failures.append(
                f"{name}: SIMD speedup {simd:.3f}x < 2x "
                "(native-w1 vs native-scalar, one core)"
            )
        scaling = case.get("scaling_efficiency")
        if scaling is None:
            continue
        if many_cores:
            if scaling < 1.5:
                failures.append(
                    f"{name}: 4-worker scaling efficiency {scaling:.3f}x "
                    f"< 1.5x on a {os.cpu_count()}-CPU host"
                )
        else:
            print(
                f"  {name}: scaling gate skipped "
                f"(os.cpu_count()={os.cpu_count()} < 4)"
            )
    return failures


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--quick", action="store_true",
                    help="small grids, single repeat (CI smoke)")
    ap.add_argument("--out", type=Path,
                    default=Path(__file__).resolve().parent.parent
                    / "BENCH_engines.json")
    ap.add_argument("--gate", action="store_true",
                    help="fail on SIMD-speedup or scaling regressions")
    args = ap.parse_args()

    repeats = 1 if args.quick else 3
    if args.quick:
        cases = [
            ("3d-radius4", StencilSpec.star(3, 4),
             BlockingConfig(dims=3, radius=4, bsize_x=64, bsize_y=48,
                            parvec=4, partime=2),
             (24, 96, 96), 4),
            ("2d-radius2", StencilSpec.star(2, 2),
             BlockingConfig(dims=2, radius=2, bsize_x=256, parvec=4,
                            partime=4),
             (256, 512), 8),
        ]
    else:
        cases = [
            # the ISSUE's motivating case: high-order 3D, many iterations
            ("3d-radius4", StencilSpec.star(3, 4),
             BlockingConfig(dims=3, radius=4, bsize_x=96, bsize_y=64,
                            parvec=4, partime=2),
             (96, 192, 192), 16),
            ("2d-radius2", StencilSpec.star(2, 2),
             BlockingConfig(dims=2, radius=2, bsize_x=512, parvec=4,
                            partime=4),
             (1536, 2048), 16),
        ]

    payload = {
        "generated_by": "benchmarks/emit_bench.py",
        "quick": args.quick,
        "native_available": native_available(),
        "cpu_count": os.cpu_count(),
        "usable_cpus": usable_cpus(),
        "cpu_count_note": (
            "scaling_efficiency is only meaningful when cpu_count >= 4; "
            "on smaller hosts the w4/w1 ratio hovers near 1.0 by "
            "construction and the scaling gate disarms itself"
        ),
        "worker_sweep": list(WORKER_SWEEP),
        "cases": [run_case(name, spec, cfg, shape, iters, repeats)
                  for name, spec, cfg, shape, iters in cases],
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")

    for case in payload["cases"]:
        scaling = case["scaling_efficiency"]
        if scaling is not None:
            print(f"{case['name']}: scaling_efficiency={scaling:.3f}x "
                  f"(native w4 vs w1)")

    headline = payload["cases"][0]["speedup_vs_legacy"]
    best = max(headline.values())
    print(f"headline 3d-radius4 speedup vs legacy: {best:.2f}x")
    if not args.quick and best < 3.0:
        raise SystemExit("headline case regressed below the 3x target")
    if args.gate:
        failures = apply_gate(payload["cases"])
        if failures:
            raise SystemExit("regression gate failed:\n  " +
                             "\n  ".join(failures))
        print("regression gate passed")


if __name__ == "__main__":
    main()
