"""Batched dispatch at the service layer (request coalescing into batches).

Compatible queued small-grid requests — same ``(spec, config, shape,
iterations, deadline, checkpoint, watchdog)`` — ride one
:class:`~repro.runtime.scheduler.BatchStencilJob`; results and errors
split back per request.  The per-request contract (tickets, metrics,
wall deadlines, degradation markers) is unchanged: batching is an
throughput optimisation the caller only sees via ``result.batched``.
"""

from __future__ import annotations

import numpy as np

from repro.core import (
    BlockingConfig,
    FPGAAccelerator,
    StencilSpec,
    make_grid,
    reference_run,
)
from repro.faults import FaultPlan, SEUFault, arm
from repro.runtime import (
    ServicePolicy,
    StencilScheduler,
    StencilService,
)

SPEC = StencilSpec.star(2, 1)
CONFIG = BlockingConfig(dims=2, radius=1, bsize_x=32, parvec=4, partime=2)
SHAPE = (12, 20)
GRID = make_grid(SHAPE, "mixed", seed=7)
REF_4 = reference_run(GRID, SPEC, 4)


def numpy_service(
    devices: int = 1, *, policy: ServicePolicy | None = None, **sched_kwargs
) -> StencilService:
    sched = StencilScheduler(devices=devices, engine="numpy", **sched_kwargs)
    return StencilService(sched, policy=policy, start=False)


def request(tenant: str = "alice", **kwargs) -> dict:
    kwargs.setdefault("iterations", 4)
    kwargs.setdefault("grid", GRID)
    return dict(tenant=tenant, spec=SPEC, config=CONFIG, **kwargs)


def test_compatible_requests_ride_one_batch() -> None:
    svc = numpy_service()
    grids = [make_grid(SHAPE, "mixed", seed=70 + i) for i in range(4)]
    tickets = [
        svc.submit(**request(tenant=t, grid=g))
        for t, g in zip("abcd", grids)
    ]
    # one run_pending drains the head plus its coalesced siblings
    assert svc.run_pending() == 4
    results = [t.result(0) for t in tickets]
    for g, r in zip(grids, results):
        assert r.status == "completed"
        assert r.batched and r.batch_size == 4
        assert np.array_equal(r.result, reference_run(g, SPEC, 4))
    snap = svc.metrics.snapshot()
    assert sum(e.get("batched", 0) for e in snap.values()) == 4
    svc.close()


def test_batched_results_match_unbatched() -> None:
    grids = [make_grid(SHAPE, "mixed", seed=80 + i) for i in range(3)]
    batched = numpy_service()
    tickets = [batched.submit(**request(grid=g)) for g in grids]
    batched.run_pending()
    outs = [t.result(0).result for t in tickets]
    batched.close()

    plain = numpy_service(policy=ServicePolicy(coalesce_max_batch=1))
    for g, out in zip(grids, outs):
        t = plain.submit(**request(grid=g))
        plain.run_pending()
        r = t.result(0)
        assert not r.batched and r.batch_size == 0
        assert np.array_equal(out, r.result)
    plain.close()


def test_incompatible_requests_do_not_coalesce() -> None:
    svc = numpy_service()
    svc.submit(**request())
    t2 = svc.submit(**request(tenant="bob", iterations=2))  # differs
    assert svc.run_pending() == 2  # drains both, but as separate jobs
    assert not t2.result(0).batched
    snap = svc.metrics.snapshot()
    assert sum(e.get("batched", 0) for e in snap.values()) == 0
    svc.close()


def test_mixed_queue_batches_only_the_compatible_run() -> None:
    svc = numpy_service()
    t1 = svc.submit(**request(tenant="a"))
    t2 = svc.submit(**request(tenant="b", iterations=2))
    t3 = svc.submit(**request(tenant="c"))
    assert svc.run_pending() == 3  # a + c ride one batch, b runs alone
    r1, r2, r3 = (t.result(0) for t in (t1, t2, t3))
    assert r1.batched and r3.batched and r1.batch_size == 2
    assert not r2.batched
    assert np.array_equal(r1.result, REF_4)
    assert np.array_equal(r2.result, reference_run(GRID, SPEC, 2))
    assert np.array_equal(r3.result, REF_4)
    svc.close()


def test_coalesce_false_disables_batching() -> None:
    svc = numpy_service(policy=ServicePolicy(coalesce_max_batch=1))
    tickets = [svc.submit(**request(tenant=t)) for t in "ab"]
    assert svc.run_pending() == 2
    assert all(not t.result(0).batched for t in tickets)
    snap = svc.metrics.snapshot()
    assert sum(e.get("batched", 0) for e in snap.values()) == 0
    svc.close()


def test_large_grids_are_never_batched() -> None:
    policy = ServicePolicy(coalesce_max_cells=64)  # 12*20 = 240 > 64
    svc = numpy_service(policy=policy)
    tickets = [svc.submit(**request(tenant=t)) for t in "ab"]
    assert svc.run_pending() == 2
    results = [t.result(0) for t in tickets]
    assert all(r.status == "completed" and not r.batched for r in results)
    svc.close()


def test_coalesce_max_batch_caps_batch_size() -> None:
    svc = numpy_service(policy=ServicePolicy(coalesce_max_batch=3))
    tickets = [svc.submit(**request(tenant=t)) for t in "abcde"]
    assert svc.run_pending() == 5  # one batch of 3, then one of 2
    sizes = sorted(t.result(0).batch_size for t in tickets)
    assert sizes == [2, 2, 3, 3, 3]
    svc.close()


def test_batched_latency_lands_in_metrics_reservoir() -> None:
    svc = numpy_service(policy=ServicePolicy(metrics_window=8))
    for t in "abcdef":
        svc.submit(**request(tenant=t))
    svc.run_pending()
    snap = svc.metrics.snapshot()
    assert sum(e.get("batched", 0) for e in snap.values()) == 6
    total_samples = sum(
        entry.get("latency_samples", 0) for entry in snap.values()
    )
    assert total_samples == 6
    svc.close()


# -- mixed-shape bucketing and per-bucket metrics ---------------------------- #

SHAPE_B = (8, 16)


def test_mixed_shapes_bucket_separately() -> None:
    """Two shapes in one queue coalesce into two batches, never one."""
    svc = numpy_service()
    grids_a = [make_grid(SHAPE, "mixed", seed=90 + i) for i in range(3)]
    grids_b = [make_grid(SHAPE_B, "mixed", seed=95 + i) for i in range(2)]
    tickets = [
        svc.submit(**request(tenant=f"a{i}", grid=g))
        for i, g in enumerate(grids_a)
    ] + [
        svc.submit(**request(tenant=f"b{i}", grid=g))
        for i, g in enumerate(grids_b)
    ]
    assert svc.run_pending() == 5
    results = [t.result(0) for t in tickets]
    assert [r.batch_size for r in results] == [3, 3, 3, 2, 2]
    for g, r in zip(grids_a + grids_b, results):
        assert np.array_equal(r.result, reference_run(g, SPEC, 4))
    buckets = svc.metrics.bucket_snapshot()
    assert len(buckets) == 2
    by_requests = sorted(
        (b["requests"], b["batches"], b["max_batch_size"],
         b["mean_batch_size"])
        for b in buckets.values()
    )
    assert by_requests == [(2, 1, 2, 2.0), (3, 1, 3, 3.0)]
    svc.close()


def test_bucket_labels_name_the_workload_shape() -> None:
    svc = numpy_service()
    for t in "ab":
        svc.submit(**request(tenant=t))
    svc.run_pending()
    (label,) = svc.metrics.bucket_snapshot()
    assert "2d-r1" in label and "12x20" in label and "it4" in label
    svc.close()


def test_equal_but_distinct_specs_coalesce() -> None:
    """Bucketing keys on stencil *content*: two StencilSpec objects with
    identical numbers ride one batch (an identity-based or dataclass
    ``==`` key would either split them or raise on the coefficient
    array's ambiguous truth value)."""
    svc = numpy_service()
    clone = StencilSpec.star(2, 1)
    assert clone is not SPEC
    g1 = make_grid(SHAPE, "mixed", seed=31)
    g2 = make_grid(SHAPE, "mixed", seed=32)
    t1 = svc.submit(**{**request(tenant="a", grid=g1), "spec": SPEC})
    t2 = svc.submit(**{**request(tenant="b", grid=g2), "spec": clone})
    assert svc.run_pending() == 2
    r1, r2 = t1.result(0), t2.result(0)
    assert r1.batched and r2.batched and r1.batch_size == 2
    assert np.array_equal(r1.result, reference_run(g1, SPEC, 4))
    assert np.array_equal(r2.result, reference_run(g2, SPEC, 4))
    svc.close()


# -- a per-grid fault inside a coalesced batch -------------------------------- #

# One pass per grid (partime=2); armed grids run one after another, so the
# block-buffer touch counter addresses them by range (as in
# tests/faults/test_batch_faults.py).
SEU_ITERS = 2
_BLOCKS = (
    FPGAAccelerator(SPEC, CONFIG, engine="numpy")
    .run(GRID, SEU_ITERS)[1].blocks_per_pass
)
TOUCHES_PER_GRID = _BLOCKS * (1 + SEU_ITERS)


def test_seu_in_one_grid_reruns_only_that_request() -> None:
    svc = numpy_service(devices=2)
    grids = [make_grid(SHAPE, "mixed", seed=50 + i) for i in range(3)]
    tickets = [
        svc.submit(**request(tenant=t, grid=g, iterations=SEU_ITERS))
        for t, g in zip("abc", grids)
    ]
    plan = FaultPlan(
        seed=21,
        faults=(SEUFault(at_touch=TOUCHES_PER_GRID + 1, site="block-buffer"),),
    )
    with arm(plan) as inj:
        assert svc.run_pending() == 3
    assert len(inj.fired) == 1
    results = [t.result(0) for t in tickets]
    for g, r in zip(grids, results):
        assert r.status == "completed"
        assert np.array_equal(r.result, reference_run(g, SPEC, SEU_ITERS))
    hit = results[1]
    # the hit request re-ran alone, through a second launch
    assert not hit.batched and hit.batch_size == 0 and hit.retries == 0
    for sibling in (results[0], results[2]):
        assert sibling.batched and sibling.batch_size == 3
        assert sibling.retries == 0
    launches = [
        e for w in svc.scheduler.workers for e in w.queue.events
        if e.name.endswith("kernel")
    ]
    assert len(launches) == 2
    snap = svc.metrics.snapshot()
    assert sum(e["completed"] for e in snap.values()) == 3
    assert sum(e["batched"] for e in snap.values()) == 2
    assert sum(e["failed"] for e in snap.values()) == 0
    svc.close()
