"""One cold benchmark process: build a ``StencilService`` and drive it.

``perfbench/run.py`` starts this as ``python3 -m perfbench.serve`` with
a private, empty ``TMPDIR`` (where compiled ``repro_native_*.so``
libraries go) and ``REPRO_AUTOTUNE_DIR``, so nothing compiled or tuned
survives from another process.  Modes:

* ``setup``: stop at the first reply (a set-up sample);
* ``measure``: set up, warm up for :data:`WARMUP_S`, then measure the
  closed loop;
* ``trace``: as ``measure``, with every layer's entry points wrapped
  during set-up and warm-up, then in every other :data:`SLICE_S` of
  the window; the slices in between give the untraced rate, so the
  tracing overhead compares halves that saw the same host phases.
  The spans go to ``.perfbench_out/<workload>.spans.npz``.

The result is written as JSON to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import time
from pathlib import Path

import numpy as np

from perfbench import ledger
from perfbench.client import LoopResult, closed_loop
from perfbench.stats import bit_exact, percentile, window_rate
from perfbench.tracing import Tracer
from perfbench.workloads import WORKLOADS
from repro.runtime.service import StencilService

#: Seconds of closed loop after the first reply that are checked but
#: not counted.
WARMUP_S = 1.0
#: Length of the alternating untraced and traced slices of a trace window.
SLICE_S = 1.0
#: Where trace mode writes its spans, under the root of the checkout.
SPANS_DIR = Path(__file__).resolve().parent.parent / ".perfbench_out"


class Alternator:
    """``on_reply`` hook: tracing off in even slices of the window, on in odd."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.on = True
        self.switches: list[tuple[float, bool]] = []

    def __call__(self, now: float, w0: float) -> None:
        if now < w0:
            return
        on = int((now - w0) / SLICE_S) % 2 == 1
        if on == self.on:
            return
        if on:
            ledger.install(self.tracer)
        else:
            self.tracer.unpatch()
        self.on = on
        self.switches.append((now, on))


class PeakRssAt:
    """``on_reply`` hook: peak RSS growth once ``replies`` are counted.

    ``StencilScheduler`` keeps every job id and ``CommandQueue`` every
    ``Event`` for its lifetime, so peak RSS grows with the replies
    served.  Read at a fixed count it does not follow the host's speed.
    """

    def __init__(self, loop: LoopResult, replies: int, baseline_mb: float):
        self.loop = loop
        self.replies = replies
        self.baseline_mb = baseline_mb
        self.mb: float | None = None

    def __call__(self, now: float, w0: float) -> None:
        if self.mb is None and self.loop.completed >= self.replies:
            self.mb = _status_mb("VmHWM") - self.baseline_mb


def _status_mb(field: str) -> float:
    """A ``kB`` field of ``/proc/self/status`` (``VmRSS``, ``VmHWM``) in MiB."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024
    raise KeyError(field)


def reset_peak_rss() -> float:
    """Reset the process's peak RSS to its current RSS and return that.

    Writing ``5`` to ``/proc/self/clear_refs`` resets ``VmHWM``, so a
    later ``VmHWM`` is the peak reached from this point on.
    """
    with open("/proc/self/clear_refs", "w") as fh:
        fh.write("5")
    return _status_mb("VmRSS")


def _write_spans(tracer: Tracer, path: Path) -> None:
    names = sorted({s.name for s in tracer.spans})
    code = {n: i for i, n in enumerate(names)}
    spans = tracer.spans
    np.savez(
        path,
        names=np.array(names),
        name=np.array([code[s.name] for s in spans], dtype=np.int16),
        id=np.array([s.id for s in spans], dtype=np.int64),
        parent=np.array(
            [-1 if s.parent is None else s.parent for s in spans], dtype=np.int64
        ),
        thread=np.array([s.thread for s in spans], dtype=np.uint64),
        start=np.array([s.start for s in spans]),
        end=np.array([s.end for s in spans]),
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--inputs", required=True, help="npz with grids, goldens")
    ap.add_argument("--t0", type=float, required=True,
                    help="time.monotonic() just before this process started")
    ap.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]
    measuring = args.mode != "setup"
    if wl.one_cpu:  # inherited by every thread and compiler started later
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    # the client's inputs, goldens and sample buffers: loaded outside
    # set-up time and resident before the memory baseline
    loaded = time.monotonic()
    with np.load(args.inputs) as data:
        grids, goldens = data["grids"], data["goldens"]
    loop = LoopResult()
    load_s = time.monotonic() - loaded

    tracer = alternator = None
    if args.mode == "trace":
        tracer = Tracer()
        ledger.install(tracer)
        alternator = Alternator(tracer)
    spec, config = wl.spec(), wl.blocking()
    baseline_mb = reset_peak_rss()
    rss = PeakRssAt(loop, wl.rss_replies, baseline_mb)
    service = StencilService()
    try:
        closed_loop(
            lambda i: service.submit(
                wl.tenant(i), spec, config, grids[i % wl.pool], wl.iterations
            ),
            lambda i, reply: reply.status == "completed"
            and bit_exact(reply.result, goldens[i % wl.pool]),
            in_flight=wl.in_flight,
            warmup_s=WARMUP_S if measuring else 0.0,
            seconds=args.seconds if measuring else 0.0,
            out=loop,
            detail=tracer is not None,
            on_reply=alternator or rss,
        )
        # read before any post-processing allocates
        peak_rss_mb = rss.mb
        if peak_rss_mb is None:  # fewer replies than wl.rss_replies
            peak_rss_mb = _status_mb("VmHWM") - baseline_mb
        tenants = service.metrics.snapshot()
        buckets = service.metrics.bucket_snapshot()
        artifacts = service.artifacts.snapshot()
    finally:
        service.close(timeout_s=10.0)
    if tracer is not None:
        tracer.unpatch()

    result = {
        # benchmark input loading is not the program's set-up
        "setup_s": loop.first_reply - args.t0 - load_s,
        "t0": args.t0,
        "first_reply": loop.first_reply,
        "first_ok": loop.first_ok,
        "mismatched": loop.mismatched,
        "timed_out": loop.timed_out,
    }
    if measuring:
        lat = loop.latencies_s
        result.update(
            attempted=loop.attempted,
            failed=loop.failed,
            shed=loop.shed,
            window=loop.window,
            latency_samples=len(lat),
            jobs_s=window_rate(loop.completed, loop.window),
            latency_p50_ms=1e3 * percentile(lat, 50),
            latency_p90_ms=1e3 * percentile(lat, 90),
            peak_rss_mb=peak_rss_mb,
            rss_replies=min(loop.completed, wl.rss_replies),
            replies=str(Path(args.out).with_name("replies.npy")),
        )
        # per counted reply: when it came, and its latency
        np.save(result["replies"], np.stack([loop.done.values(), lat]))
    if tracer is not None:
        layers = ledger.layer_metrics(
            tracer.spans, loop, wl, tenants, buckets, artifacts
        )
        layers["host_ceiling.stream_gb_s"] = ledger.stream_gb_s()
        result["layers"] = layers
        result["untraced_jobs_s"], result["traced_jobs_s"] = ledger.split_rates(
            loop.done.values(), loop.window, alternator.switches
        )
        result["spans"] = len(tracer.spans)
        SPANS_DIR.mkdir(exist_ok=True)
        spans = SPANS_DIR / f"{wl.name}.spans.npz"
        _write_spans(tracer, spans)
        result["spans_file"] = str(spans.relative_to(SPANS_DIR.parent))
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
