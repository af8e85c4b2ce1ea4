import json
from pathlib import Path

import pytest

from perfbench import ledger
from perfbench.client import LoopResult
from perfbench.tracing import Span
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]


def bench():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_lists_the_ledger_and_the_workloads():
    spec = bench()
    assert spec["per_layer"] == [
        {"name": n, "unit": u, "better": b} for n, u, b, *_ in ledger.LAYERS
    ]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()
    }
    for _, _, _, moves, workloads in ledger.LAYERS:
        assert moves and set(workloads) <= set(WORKLOADS)


def test_batched_request_splits_into_queue_wait_scheduler_and_service_self():
    """One batched request on the dispatch thread: latency 6 s = queue
    wait 0.5 s + scheduler span 4 s + service self 1.5 s; the scheduler
    and host self times exclude the spans nested under them."""
    spans = [
        Span(0, "service.submit", None, 1, 9.0, 9.25, {"request": "t/0"}),
        Span(1, "scheduler.execute_batch", None, 2, 10.0, 14.0,
             {"job": "t/0.b0", "partime": 2}),
        Span(2, "host.enqueue_batch_kernel", 1, 2, 11.0, 13.0),
        Span(3, "accelerator.run_batch", 2, 2, 11.5, 12.5,
             {"passes": 2, "redundancy": 2.0}),
        Span(4, "batch.pack", 3, 2, 11.5, 11.75),
        Span(5, "service.result", None, 1, 9.25, 15.0, {"request": "t/0"}),
    ]
    loop = LoopResult(first_reply=5.0, window=(8.0, 20.0))
    loop.sent.append(9.0)
    loop.done.append(15.0)
    loop.queue_wait.append(0.5)
    loop.jobs.append("t/0.b0")
    buckets = {"b": {"batches": 2, "requests": 63, "max_batch_size": 32}}
    tenants = {"t": {"degraded": 0, "retries": 1, "shed": 2}}
    got = ledger.layer_metrics(
        spans, loop, WORKLOADS["small-grids"], tenants, buckets,
        {"hits": 5, "misses": 1},
    )
    assert got["service.submit_us"] == pytest.approx(250_000.0)
    assert got["service.queue_wait_ms"] == pytest.approx(500.0)
    assert got["service.self_ms"] == pytest.approx(1500.0)
    assert got["scheduler.execute_ms"] == pytest.approx(4000.0)
    assert got["scheduler.self_ms"] == pytest.approx(2000.0)
    assert got["host.kernel_self_ms"] == pytest.approx(1000.0)
    assert got["accelerator.run_batch_ms"] == pytest.approx(1000.0)
    assert got["accelerator.run_ms"] == 0.0
    assert got["batch.pack_ms"] == pytest.approx(250.0)
    assert got["service.mean_batch_size"] == pytest.approx(31.5)
    assert (got["service.retries"], got["service.shed"]) == (1, 2)
    assert got["kernel.cell_updates"] == 32 * 32 * 4
    # 4 iterations at partime 2: two passes, each streaming the grid in and out
    assert got["kernel.computed_bytes"] == 2 * 2 * 4 * 32 * 32


def test_queue_wait_and_self_time_come_from_traced_requests_only():
    """Two requests in the window; only the first one's scheduler span
    was traced, so the second one's queue wait must not be averaged in."""
    spans = [
        Span(0, "scheduler.execute_job", None, 2, 10.0, 12.0,
             {"job": "j1", "partime": 4}),
    ]
    loop = LoopResult(first_reply=5.0, window=(8.0, 20.0))
    for sent, done, wait, job in ((9.0, 13.0, 1.0, "j1"), (13.0, 19.0, 3.0, "j2")):
        loop.sent.append(sent)
        loop.done.append(done)
        loop.queue_wait.append(wait)
        loop.jobs.append(job)
    got = ledger.layer_metrics(
        spans, loop, WORKLOADS["bulk-2d-r2"], {}, {}, {"hits": 0, "misses": 0}
    )
    assert got["service.queue_wait_ms"] == pytest.approx(1000.0)
    assert got["service.self_ms"] == pytest.approx(1000.0)  # 4 - 1 - 2 s


def test_finish_adds_the_figures_that_need_the_untraced_rate():
    layers = {"kernel.flops": 5e7, "kernel.flop_per_byte": 2.0,
              "host_ceiling.stream_gb_s": 5.0}
    out = ledger.finish(layers, 100.0, 90.0, [0.002, 0.001, 0.003])
    assert out["kernel.gflop_s"] == pytest.approx(5.0)
    assert out["kernel.roofline_fraction"] == pytest.approx(0.5)
    assert out["reference.run_ms"] == pytest.approx(2.0)
    assert out["trace.overhead_pct"] == pytest.approx(10.0)


def test_split_rates_counts_each_completion_in_the_slice_it_landed_in():
    # window [10, 14): on until 10.5, off to 11.5, on to 12.5, off to 14
    switches = [(10.5, False), (11.5, True), (12.5, False), (20.0, True)]
    done = [10.2, 10.6, 10.7, 11.0, 11.6, 12.0, 12.6, 13.0, 13.5, 13.9, 15.0]
    off, on = ledger.split_rates(done, (10.0, 14.0), switches)
    assert off == pytest.approx(7 / 2.5)
    assert on == pytest.approx(3 / 1.5)


def test_the_alternator_unwraps_and_rewraps_the_entry_points():
    from perfbench.serve import SLICE_S, Alternator
    from perfbench.tracing import Tracer
    from repro.runtime.service import StencilService

    original = StencilService.__dict__["submit"]
    tracer = Tracer()
    ledger.install(tracer)
    try:
        alt = Alternator(tracer)
        alt(0.5, 1.0)  # warm-up: stays traced
        assert StencilService.__dict__["submit"] is not original
        alt(1.0 + 0.5 * SLICE_S, 1.0)  # first slice: untraced
        assert StencilService.__dict__["submit"] is original
        alt(1.0 + 1.5 * SLICE_S, 1.0)  # second slice: traced again
        assert StencilService.__dict__["submit"] is not original
        assert [on for _, on in alt.switches] == [False, True]
    finally:
        tracer.unpatch()
    assert StencilService.__dict__["submit"] is original
