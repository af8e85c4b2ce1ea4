#!/usr/bin/env python
"""Emit ``BENCH_autotune.json``: the cold tune → warm serve round-trip.

Exercises the empirical autotuner end to end against a *fresh* plan-
selection cache directory:

1. **cold resolve** — model shortlist, per-candidate bit-exactness
   audit, micro-benchmark, winner persisted (``source == "measured"``).
   It runs in a fresh Python process with its own empty ``TMPDIR`` (as
   ``perfbench`` does), so ``cold_resolve_s`` includes compiling the
   pass driver: ``cold_compile_s`` is the wall time spent in
   ``native._compile`` within it, and ``cold_compiles`` counts the
   libraries it built;
2. **warm resolve** — a second resolution of the same workload, in this
   process against the same directory, must reload the persisted winner
   (``source == "cache"``, identical config) in well under the cold
   cost;
3. **serve latency** — N requests served through
   :meth:`~repro.runtime.artifacts.ArtifactCache.get_tuned` (config
   resolved from the warm selection cache on every request) are timed
   against the same N requests with the winning config pinned by hand,
   one request of each per round.  The cache-hit resolution overhead is
   the median over rounds of the paired ``tuned / pinned`` ratio, minus
   one.

``--gate`` enforces the acceptance criteria: the warm resolution must
actually come from the cache with the identical config, and the tuned
serve path must stay within 5% of the hand-pinned one.  The resolution
is one small JSON read against a multi-millisecond stencil run, so 5%
is generous; the paired median keeps it that way on a shared host,
where one request of 0.6-3.4 ms caught by a slow moment would decide a
comparison of the two paths' fastest requests.

Usage::

    PYTHONPATH=src python benchmarks/emit_autotune.py --smoke --gate
    PYTHONPATH=src python benchmarks/emit_autotune.py            # full

The JSON lands in the repository root by default (``--out`` overrides).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro.core import StencilSpec, make_grid, native
from repro.core.native import usable_cpus
from repro.fpga.board import NALLATECH_385A
from repro.models.tuner import Tuner
from repro.runtime.artifacts import ArtifactCache
from repro.runtime.autotune import (
    CACHE_DIR_ENV,
    Autotuner,
    PlanSelectionCache,
    cpu_fingerprint,
    design_label,
)

#: serve-phase rounds, one request per path each (the gate's paired
#: median needs more than the 9 a min-of-N comparison used)
SERVE_REQUESTS = 31

ROOT = Path(__file__).resolve().parent.parent

#: name -> (spec, grid shape, iterations).  The first is the smoke case;
#: it matches emit_bench's quick-case geometry, since a toy grid would
#: let fixed tens-of-microseconds timing jitter dominate the percentage
#: the gate is about.
CASES = {
    "3d-radius4": (StencilSpec.star(3, 4), (24, 96, 96), 4),
    "2d-radius2": (StencilSpec.star(2, 2), (512, 1024), 8),
    "3d-radius4-small": (StencilSpec.star(3, 4), (16, 64, 64), 4),
}


def _serve_latencies(paths, grid, iterations, requests) -> dict:
    """Per-request seconds per path, one request of each per round.

    ``paths`` maps label -> zero-arg callable returning a warm program.
    Interleaving the paths within each round (instead of timing one path
    to completion, then the other) cancels machine drift out of the
    comparison — the gate is about their *ratio* — and the order
    alternates between rounds so neither path always runs first.
    """
    for get_program in paths.values():  # warm program cache + pools
        get_program().execute(grid, iterations)
    times = {label: [] for label in paths}
    labels = list(paths)
    for i in range(requests):
        for label in labels if i % 2 == 0 else labels[::-1]:
            t0 = time.perf_counter()
            prog = paths[label]()
            prog.execute(grid, iterations)
            times[label].append(time.perf_counter() - t0)
    return times


def paired_overhead(tuned, pinned) -> float:
    """Median over rounds of ``tuned / pinned`` request time, minus one.

    Each round's two requests ran back to back, so their ratio carries
    the cost of resolving the config and little of the host's drift; the
    median ignores the rounds a slow moment on a shared host caught.
    """
    return statistics.median(t / p for t, p in zip(tuned, pinned)) - 1.0


def _winner(config) -> dict:
    return {
        "bsize_x": config.bsize_x,
        "bsize_y": config.bsize_y,
        "parvec": config.parvec,
        "partime": config.partime,
    }


def model_of(name: str, k: int) -> dict:
    """The shortlist's prediction for each candidate of case ``name``.

    The same ranking :meth:`Autotuner.resolve` measures (this process's
    ``usable_cpus()`` workers, clamp boundary), keyed like
    ``measured_ms``: the FPGA model's milliseconds, the pool imbalance,
    the busiest worker's cells over the served passes, and the rank.
    """
    spec, shape, iterations = CASES[name]
    designs = Tuner(spec, NALLATECH_385A).shortlist(
        shape, iterations, k=k, workers=usable_cpus()
    )
    return {
        design_label(d.config): {
            "rank": rank,
            "fpga_ms": round(d.estimate.time_s * 1e3, 6),
            "imbalance": round(d.imbalance, 4),
            "makespan_cells": d.makespan_cells,
        }
        for rank, d in enumerate(designs)
    }


def rank_agreement(model: dict, measured_ms: dict) -> float | None:
    """Share of measured candidate pairs the model orders as measured.

    Over every pair of audited candidates, the pair agrees when the
    model's rank and the measured milliseconds put the same one first
    (a concordant pair, Kendall's sense).  None with fewer than two
    candidates.
    """
    labels = sorted(measured_ms, key=lambda lb: model[lb]["rank"])
    pairs = [
        (a, b) for i, a in enumerate(labels) for b in labels[i + 1:]
    ]
    if not pairs:
        return None
    agree = sum(measured_ms[a] < measured_ms[b] for a, b in pairs)
    return round(agree / len(pairs), 4)


def cold_child(name: str) -> None:
    """The cold resolve, run as the whole of a fresh process.

    Resolves case ``name`` against the autotune directory in the
    environment and prints one JSON line: the resolve's seconds, the
    part of them spent compiling, its provenance, the winner, the
    candidates' timings and the model's prediction for each.
    """
    spec, shape, iterations = CASES[name]
    compile_s = []
    build = native._compile

    def timed_compile(source, flags):
        t = time.perf_counter()
        try:
            return build(source, flags)
        finally:
            compile_s.append(time.perf_counter() - t)

    native._compile = timed_compile
    tuner = Autotuner()
    t0 = time.perf_counter()
    plan = tuner.resolve(spec, shape, iterations=iterations)
    cold_s = time.perf_counter() - t0
    print(json.dumps({
        "cold_s": cold_s,
        "compile_s": sum(compile_s),
        "source": plan.source,
        "winner": _winner(plan.config),
        "measured_ms": plan.measured_ms,
        "workers": usable_cpus(),
        "model": model_of(name, tuner.shortlist_k),
    }))


def cold_resolve(name: str, cache_dir: str) -> dict:
    """Run :func:`cold_child` in a fresh process with an empty ``TMPDIR``.

    No compiled driver library or tuned plan is inherited, so the resolve
    pays every compile it needs; the ``repro_native_*.so`` files left in
    its ``TMPDIR`` (content-addressed, one per build) count them.
    """
    with tempfile.TemporaryDirectory(prefix="repro-autotune-tmp") as tmp:
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
        )
        env["TMPDIR"] = tmp
        env[CACHE_DIR_ENV] = cache_dir
        proc = subprocess.run(
            [sys.executable, __file__, "--cold-child", name],
            env=env, capture_output=True, text=True, timeout=600,
        )
        if proc.returncode != 0:
            raise SystemExit(f"cold resolve of {name} failed:\n{proc.stderr}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["compiles"] = len(list(Path(tmp).glob("repro_native_*.so")))
    return result


def run_case(name, cache_dir) -> dict:
    spec, shape, iterations = CASES[name]
    cold = cold_resolve(name, cache_dir)
    cold_s = cold["cold_s"]
    # a *fresh* tuner in this process against the same directory: the
    # warm resolution must come from the persisted selection — the
    # cross-process round trip the cache exists for.
    warm_tuner = Autotuner(cache=PlanSelectionCache(cache_dir))
    t0 = time.perf_counter()
    warm = warm_tuner.resolve(spec, shape, iterations=iterations)
    warm_s = time.perf_counter() - t0
    print(f"  {name}: cold resolve {cold_s:.3f}s [{cold['source']}], "
          f"{cold['compiles']} compile(s) in {cold['compile_s']:.3f}s "
          f"-> {warm.describe()}")
    print(f"  {name}: warm resolve {warm_s*1e3:.3f}ms [{warm.source}]")

    grid = make_grid(shape, "random", seed=7)
    artifact_cache = ArtifactCache(capacity=4)
    try:
        # the tuned path re-resolves the config from the selection cache
        # on every request; the pinned path hard-codes the winner.
        def tuned():
            plan = warm_tuner.resolve(spec, shape, iterations=iterations)
            return artifact_cache.get(spec, plan.config, engine="auto")

        def pinned(config=warm.config):
            return artifact_cache.get(spec, config, engine="auto")

        times = _serve_latencies(
            {"pinned": pinned, "tuned": tuned},
            grid, iterations, SERVE_REQUESTS,
        )
    finally:
        artifact_cache.close()
    pinned_s, tuned_s = min(times["pinned"]), min(times["tuned"])
    overhead = paired_overhead(times["tuned"], times["pinned"])
    print(f"  {name}: serve pinned {pinned_s*1e3:.3f}ms  "
          f"tuned {tuned_s*1e3:.3f}ms (best of {SERVE_REQUESTS})  "
          f"paired overhead {overhead*100:+.2f}%")

    return {
        "name": name,
        "grid_shape": list(shape),
        "dims": spec.dims,
        "radius": spec.radius,
        "iterations": iterations,
        "winner": _winner(warm.config),
        "candidates_measured_ms": cold["measured_ms"],
        "workers": cold["workers"],
        "candidates_model": cold["model"],
        "model_rank_agreement": rank_agreement(
            cold["model"], cold["measured_ms"]
        ),
        "model_pick_won": bool(
            cold["measured_ms"]
            and min(cold["model"], key=lambda lb: cold["model"][lb]["rank"])
            == min(cold["measured_ms"], key=cold["measured_ms"].get)
        ),
        "cold_resolve_s": round(cold_s, 4),
        "cold_compile_s": round(cold["compile_s"], 4),
        "cold_compiles": cold["compiles"],
        "cold_source": cold["source"],
        "warm_resolve_s": round(warm_s, 6),
        "warm_source": warm.source,
        "round_trip_ok": bool(
            cold["source"] == "measured"
            and warm.source == "cache"
            and _winner(warm.config) == cold["winner"]
        ),
        "serve_pinned_s": round(pinned_s, 6),
        "serve_tuned_s": round(tuned_s, 6),
        "cache_hit_overhead": round(overhead, 4),
    }


def apply_gate(cases: list[dict]) -> list[str]:
    """Acceptance-criteria failures (empty = pass).

    The round trip must demonstrate measured-then-cached provenance
    with a stable winner, and the tuned serve path must add <= 5%
    latency over the hand-pinned plan (:func:`paired_overhead`).
    """
    failures = []
    for case in cases:
        name = case["name"]
        if not case["round_trip_ok"]:
            failures.append(
                f"{name}: cold tune -> warm serve round trip broken "
                f"(cold={case['cold_source']}, warm={case['warm_source']})"
            )
        if case["cache_hit_overhead"] > 0.05:
            failures.append(
                f"{name}: cache-hit serve overhead "
                f"{case['cache_hit_overhead']*100:.2f}% > 5% vs the "
                "hand-pinned plan"
            )
    return failures


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--smoke", action="store_true",
                    help="small grids, 3D case only (CI)")
    ap.add_argument("--out", type=Path,
                    default=Path(__file__).resolve().parent.parent
                    / "BENCH_autotune.json")
    ap.add_argument("--gate", action="store_true",
                    help="fail on round-trip or cache-hit-latency breaches")
    ap.add_argument("--cold-child", choices=sorted(CASES),
                    help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.cold_child:
        cold_child(args.cold_child)
        return

    names = list(CASES)[:1] if args.smoke else list(CASES)

    with tempfile.TemporaryDirectory(prefix="repro-autotune-bench") as tmp:
        payload = {
            "generated_by": "benchmarks/emit_autotune.py",
            "smoke": args.smoke,
            "cpu": cpu_fingerprint(),
            "serve_requests": SERVE_REQUESTS,
            "cases": [run_case(name, tmp) for name in names],
        }
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")

    if args.gate:
        failures = apply_gate(payload["cases"])
        if failures:
            raise SystemExit("autotune gate failed:\n  " +
                             "\n  ".join(failures))
        print("autotune gate passed")


if __name__ == "__main__":
    main()
