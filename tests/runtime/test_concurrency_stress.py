"""Seeded 8-thread stress over the service/scheduler/faults stack.

Dynamic counterpart of the T501-T508 static rules: eight threads mix
``submit``, global fault ``arm``/disarm, and introspection against a
live dispatch thread, then one of them closes the service.  The
assertions are exactly what the lint pass proves ahead of time —
no deadlock across the service/metrics/cache/arm locks (the test
terminates inside its join budgets), every ticket reaches exactly one
typed terminal state, the metrics agree with first-writer-wins
fulfilment, and the dispatch thread is joined on close.

Everything is seeded (one ``default_rng`` per thread) and bounded, so a
failure reproduces: no unbounded queues, no unbounded waits.
"""

from __future__ import annotations

import threading

import numpy as np

from repro import errors as errors_mod
from repro.core import BlockingConfig, StencilSpec, make_grid
from repro.errors import ConfigurationError, ReproError, ShedError
from repro.faults import FaultPlan, TransferFault, arm
from repro.runtime import ServicePolicy, StencilScheduler, StencilService

N_THREADS = 8
OPS_PER_THREAD = 24
SEED = 20260808

SPEC = StencilSpec.star(2, 1)
CONFIG = BlockingConfig(dims=2, radius=1, bsize_x=64, parvec=4, partime=2)
GRID = make_grid((16, 64), "mixed", seed=11)

TYPED_ERROR_NAMES = {
    name
    for name, obj in vars(errors_mod).items()
    if isinstance(obj, type) and issubclass(obj, ReproError)
}


def test_eight_thread_submit_arm_close_stress() -> None:
    svc = StencilService(
        StencilScheduler(devices=2, engine="numpy"),
        policy=ServicePolicy(max_queue_depth=256),
        start=True,
    )
    plan = FaultPlan(
        seed=3,
        faults=(TransferFault(at_transfer=0, direction="write", mode="fail"),),
    )
    tickets: list = []
    tickets_lock = threading.Lock()
    crashes: list = []
    barrier = threading.Barrier(N_THREADS)

    def worker(idx: int) -> None:
        rng = np.random.default_rng(SEED + idx)
        try:
            barrier.wait(timeout=30)
            for _ in range(OPS_PER_THREAD):
                roll = float(rng.random())
                if roll < 0.70:
                    try:
                        ticket = svc.submit(
                            tenant=f"tenant-{idx}", spec=SPEC, config=CONFIG,
                            grid=GRID, iterations=1,
                        )
                    except (ShedError, ConfigurationError):
                        continue  # typed backpressure is a valid outcome
                    with tickets_lock:
                        tickets.append((f"tenant-{idx}", ticket))
                elif roll < 0.85:
                    # contend the process-global _ARM_LOCK: losers must
                    # get a typed refusal, never a corrupted hook state
                    try:
                        with arm(plan):
                            pass
                    except ConfigurationError:
                        pass
                else:
                    svc.report()
                    assert svc.queue_depth >= 0
        except BaseException as err:  # pragma: no cover - diagnostics
            crashes.append((idx, err))

    threads = [
        threading.Thread(target=worker, args=(i,)) for i in range(N_THREADS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120.0)
    assert not any(t.is_alive() for t in threads), "worker deadlocked"
    assert crashes == [], crashes

    svc.close(drain=True, timeout_s=120.0)
    assert svc._thread is not None and not svc._thread.is_alive()

    assert tickets, "stress produced no admitted work"
    per_tenant: dict[str, list[int]] = {}
    for tenant, ticket in tickets:
        assert ticket.wait(30.0), f"ticket {ticket.request_id} stranded"
        result = ticket.result(0)
        assert result.status in ("completed", "failed")
        if result.status == "failed":
            assert result.error_type in TYPED_ERROR_NAMES, result.error_type
        bucket = per_tenant.setdefault(tenant, [0, 0])
        bucket[0 if result.status == "completed" else 1] += 1

    # first-writer-wins fulfilment keeps the metrics exact: each ticket
    # lands in completed xor failed exactly once, shutdown races included
    snapshot = svc.metrics.snapshot()
    for tenant, (completed, failed) in per_tenant.items():
        counters = snapshot[tenant]
        assert counters["completed"] == completed, tenant
        assert counters["failed"] == failed, tenant
