"""The per-layer ledger: which entry points are wrapped, and what each
layer metric means.

:data:`LAYERS` is the single list of per-layer metrics.  For each it
records the end-to-end metric it should move and the workloads it
should move it on, written down before anything is measured so a later
optimisation can be checked against the prediction.  ``BENCHMARK.json``
carries the ``(name, unit, better)`` part of the same list.

Times are means per call (or per request) over the measured window, so
they add up along the blocking path: a request's latency is its queue
wait, plus the scheduler span that served it, plus ``service.self_ms``.
"""

from __future__ import annotations

import math
import time
from collections import defaultdict

import numpy as np

from perfbench.tracing import self_times

ALL = ("bulk-3d-r4", "bulk-2d-r2", "small-grids")
BULK = ("bulk-3d-r4", "bulk-2d-r2")
SMALL = ("small-grids",)
BULK3D = ("bulk-3d-r4",)

#: (name, unit, better, end-to-end metric it should move, workloads).
LAYERS: tuple[tuple[str, str, str, str, tuple[str, ...]], ...] = (
    ("service.submit_us", "us", "lower", "jobs_s, latency_p50_ms", SMALL),
    ("service.queue_wait_ms", "ms", "lower", "latency_p50_ms, latency_p90_ms", SMALL),
    ("service.self_ms", "ms", "lower", "jobs_s, latency_p50_ms", SMALL),
    ("service.mean_batch_size", "count", "higher", "jobs_s", SMALL),
    ("service.degraded", "count", "lower", "jobs_s, latency_p90_ms", SMALL),
    ("service.retries", "count", "lower", "latency_p90_ms", SMALL),
    ("service.shed", "count", "lower", "success_ratio", SMALL),
    ("autotune.cold_resolve_s", "s", "lower", "setup_s", BULK3D),
    ("autotune.warm_resolve_us", "us", "lower", "latency_p50_ms", BULK3D),
    ("autotune.candidates", "count", "lower",
     "setup_s; throughput_gcell_s through the chosen plan", BULK3D),
    ("artifacts.build_s", "s", "lower", "setup_s", ALL),
    ("artifacts.hits", "count", "higher", "setup_s", ALL),
    ("artifacts.misses", "count", "lower", "setup_s", ALL),
    ("scheduler.execute_ms", "ms", "lower", "latency_p50_ms", ALL),
    ("scheduler.self_ms", "ms", "lower", "latency_p50_ms", ALL),
    ("host.write_ms", "ms", "lower", "latency_p50_ms, throughput_gcell_s", BULK),
    ("host.read_ms", "ms", "lower", "latency_p50_ms, throughput_gcell_s", BULK),
    ("host.kernel_self_ms", "ms", "lower", "latency_p50_ms, throughput_gcell_s", BULK),
    ("accelerator.run_ms", "ms", "lower", "throughput_gcell_s", BULK),
    ("accelerator.run_batch_ms", "ms", "lower",
     "jobs_s, by at most its share of a batch", SMALL),
    ("accelerator.passes", "count", "lower", "throughput_gcell_s", BULK),
    ("accelerator.redundancy_ratio", "ratio", "lower", "throughput_gcell_s", BULK),
    ("batch.pack_ms", "ms", "lower", "jobs_s", SMALL),
    ("batch.unpack_ms", "ms", "lower", "jobs_s", SMALL),
    ("kernel.cell_updates", "count", "higher", "throughput_gcell_s", ALL),
    ("kernel.flops", "count", "lower", "throughput_gcell_s", BULK),
    ("kernel.computed_bytes", "B", "lower", "throughput_gcell_s", BULK),
    ("kernel.flop_per_byte", "flop/B", "higher", "throughput_gcell_s", BULK),
    ("kernel.gflop_s", "gflop/s", "higher", "throughput_gcell_s", BULK),
    ("host_ceiling.stream_gb_s", "GB/s", "higher", "none (host property)", ()),
    ("kernel.roofline_fraction", "ratio", "higher", "throughput_gcell_s", BULK),
    ("reference.run_ms", "ms", "lower", "none (baseline)", ()),
    ("trace.overhead_pct", "%", "lower", "none (measurement cost)", ()),
)

UNITS = {name: unit for name, unit, *_ in LAYERS}


def install(tracer) -> None:
    """Wrap the public entry points of every layer (no file of the
    program changes; the patches live in this process only)."""
    from repro.core.accelerator import FPGAAccelerator
    from repro.core.batch import BatchPlan
    from repro.runtime import autotune
    from repro.runtime.artifacts import ArtifactCache
    from repro.runtime.host import CommandQueue
    from repro.runtime.scheduler import StencilScheduler
    from repro.runtime.service import ServiceTicket, StencilService

    def job(args, kwargs, out, before):
        j = args[1] if len(args) > 1 else kwargs["job"]
        return {"job": j.job_id, "partime": j.config.partime}

    def stats(s):
        return {"passes": s.passes, "redundancy": s.redundancy_ratio}

    patch = tracer.patch
    patch(StencilService, "submit", "service.submit",
          attrs=lambda a, k, out, b: {"request": out.request_id})
    patch(ServiceTicket, "result", "service.result",
          attrs=lambda a, k, out, b: {"request": a[0].request_id})
    patch(autotune, "resolve_config", "autotune.resolve_config")
    patch(autotune.Autotuner, "resolve", "autotune.resolve",
          attrs=lambda a, k, out, b: {"candidates": len(out.measured_ms)})
    patch(ArtifactCache, "get", "artifacts.get",
          pre=lambda a, k: a[0].stats["misses"],
          attrs=lambda a, k, out, before: {"miss": a[0].stats["misses"] != before})
    patch(ArtifactCache, "get_tuned", "artifacts.get_tuned")
    patch(StencilScheduler, "execute_job", "scheduler.execute_job", attrs=job)
    patch(StencilScheduler, "execute_batch", "scheduler.execute_batch", attrs=job)
    for method in ("enqueue_write_buffer", "enqueue_read_buffer",
                   "enqueue_kernel", "enqueue_batch_kernel"):
        patch(CommandQueue, method, f"host.{method}")
    patch(FPGAAccelerator, "run", "accelerator.run",
          attrs=lambda a, k, out, b: stats(out[1]))
    patch(FPGAAccelerator, "run_batch", "accelerator.run_batch",
          attrs=lambda a, k, out, b: stats(out.stats))
    patch(BatchPlan, "pack", "batch.pack")
    patch(BatchPlan, "unpack", "batch.unpack")


def _mean(values) -> float:
    values = list(values)
    return float(sum(values) / len(values)) if values else 0.0


def layer_metrics(spans, loop, workload, tenants, buckets, artifacts) -> dict:
    """Per-layer figures from one traced process.

    ``loop`` is the client's :class:`~perfbench.client.LoopResult`;
    ``tenants``, ``buckets`` and ``artifacts`` are the service's
    ``metrics.snapshot()``, ``metrics.bucket_snapshot()`` and
    ``artifacts.snapshot()`` at the end of the run.  Layers a workload
    never crosses read 0.
    """
    w0, w1 = loop.window
    own = self_times(spans)
    window: dict[str, list] = defaultdict(list)
    setup: dict[str, list] = defaultdict(list)
    for s in spans:
        if w0 <= s.start < w1:
            window[s.name].append(s)
        elif s.end <= loop.first_reply:
            setup[s.name].append(s)

    def mean_ms(*names, self_time=False):
        return 1e3 * _mean(
            own[s.id] if self_time else s.duration
            for name in names for s in window[name]
        )

    sched = ("scheduler.execute_job", "scheduler.execute_batch")
    engine = ("accelerator.run", "accelerator.run_batch")
    # a call that raised has no attrs: it counts in times, not in tallies
    served = {s.attrs["job"]: s.duration for s in spans
              if s.name in sched and s.attrs}
    # requests whose scheduler span was traced, so queue wait, execute
    # and service self time come from the same requests
    traced = [
        (done - sent, wait, served[job])
        for sent, done, wait, job in zip(
            loop.sent.values(), loop.done.values(), loop.queue_wait, loop.jobs
        )
        if job in served
    ]
    batches = sum(b["batches"] for b in buckets.values())
    partimes = [s.attrs["partime"] for name in sched for s in window[name]
                if s.attrs]
    partime = partimes[0] if partimes else workload.config["partime"]
    spec = workload.spec()
    cell_updates = workload.cells * workload.iterations
    flops = cell_updates * spec.flops_per_cell
    # computed, not measured: each pass streams the grid in and out once
    computed_bytes = (
        math.ceil(workload.iterations / partime) * 2 * 4 * workload.cells
    )
    return {
        "service.submit_us": 1e3 * mean_ms("service.submit"),
        "service.queue_wait_ms": 1e3 * _mean(wait for _, wait, _ in traced),
        "service.self_ms": 1e3 * _mean(
            latency - wait - execute for latency, wait, execute in traced
        ),
        "service.mean_batch_size": (
            sum(b["requests"] for b in buckets.values()) / batches
            if batches else 1.0
        ),
        "service.degraded": sum(t["degraded"] for t in tenants.values()),
        "service.retries": sum(t["retries"] for t in tenants.values()),
        "service.shed": sum(t["shed"] for t in tenants.values()),
        "autotune.cold_resolve_s": sum(
            s.duration for s in setup["autotune.resolve"]
        ),
        "autotune.warm_resolve_us": 1e3 * mean_ms("autotune.resolve"),
        "autotune.candidates": max(
            (s.attrs["candidates"] for s in setup["autotune.resolve"]
             if s.attrs),
            default=0,
        ),
        "artifacts.build_s": sum(
            s.duration for s in spans
            if s.name == "artifacts.get" and s.attrs and s.attrs["miss"]
        ),
        "artifacts.hits": artifacts["hits"],
        "artifacts.misses": artifacts["misses"],
        "scheduler.execute_ms": mean_ms(*sched),
        "scheduler.self_ms": mean_ms(*sched, self_time=True),
        "host.write_ms": mean_ms("host.enqueue_write_buffer"),
        "host.read_ms": mean_ms("host.enqueue_read_buffer"),
        "host.kernel_self_ms": mean_ms(
            "host.enqueue_kernel", "host.enqueue_batch_kernel", self_time=True
        ),
        "accelerator.run_ms": mean_ms("accelerator.run"),
        "accelerator.run_batch_ms": mean_ms("accelerator.run_batch"),
        "accelerator.passes": _mean(
            s.attrs["passes"] for name in engine for s in window[name]
            if s.attrs
        ),
        "accelerator.redundancy_ratio": _mean(
            s.attrs["redundancy"] for name in engine for s in window[name]
            if s.attrs
        ),
        "batch.pack_ms": mean_ms("batch.pack"),
        "batch.unpack_ms": mean_ms("batch.unpack"),
        "kernel.cell_updates": cell_updates,
        "kernel.flops": flops,
        "kernel.computed_bytes": computed_bytes,
        "kernel.flop_per_byte": flops / computed_bytes,
    }


def split_rates(done, window, switches) -> tuple[float, float]:
    """Completions per second in the window while tracing was off, and on.

    ``done`` are sorted completion times; tracing is on at the window's
    start and ``switches`` lists each later ``(time, on)`` change.
    """
    w0, w1 = window
    marks = [(w0, True), *((t, on) for t, on in switches if w0 < t < w1), (w1, None)]
    count = {False: 0, True: 0}
    span = {False: 0.0, True: 0.0}
    for (start, on), (end, _) in zip(marks, marks[1:]):
        lo, hi = np.searchsorted(done, [start, end])
        count[on] += int(hi - lo)
        span[on] += end - start
    return count[False] / span[False], count[True] / span[True]


def finish(layers: dict, untraced_jobs_s: float, traced_jobs_s: float,
           reference_s) -> dict:
    """Add the figures that need the untraced rate and the golden timings.

    ``reference_s`` are the single-threaded ``core/reference.py`` times
    of the goldens.
    """
    out = dict(layers)
    gflop_s = untraced_jobs_s * layers["kernel.flops"] / 1e9
    out["kernel.gflop_s"] = gflop_s
    out["kernel.roofline_fraction"] = gflop_s / (
        layers["host_ceiling.stream_gb_s"] * layers["kernel.flop_per_byte"]
    )
    out["reference.run_ms"] = 1e3 * float(np.median(reference_s))
    out["trace.overhead_pct"] = (
        100.0 * (untraced_jobs_s - traced_jobs_s) / untraced_jobs_s
    )
    return out


def stream_gb_s(mib: int = 64, repeats: int = 5) -> float:
    """Best-of-N NumPy copy bandwidth (bytes read plus bytes written).

    Two 64 MiB arrays can sit in a large shared last-level cache, so
    this is a computed ceiling for the roofline ratio, not a DRAM
    bandwidth measurement.
    """
    src = np.ones(mib * 2**20 // 4, dtype=np.float32)
    dst = np.empty_like(src)
    np.copyto(dst, src)
    best = math.inf
    for _ in range(repeats):
        t = time.monotonic()
        np.copyto(dst, src)
        best = min(best, time.monotonic() - t)
    return 2 * src.nbytes / best / 1e9
