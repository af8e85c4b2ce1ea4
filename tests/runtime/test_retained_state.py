"""A long-running service retains the same state after N and after 5N requests.

Every sized attribute of the service, its metrics, its scheduler, the
scheduler's workers and their command queues must have the same size
once the run has filled each bounded store (the event rings hold
:data:`~repro.runtime.host.EVENT_LOG` events): nothing may grow with
the number of requests served.
"""

from __future__ import annotations

from repro.core import BlockingConfig, StencilSpec, make_grid
from repro.runtime import ServicePolicy, StencilScheduler, StencilService
from repro.runtime.host import EVENT_LOG
from repro.runtime.service import ESTIMATE_MEMO

SPEC = StencilSpec.star(2, 1)
CONFIG = BlockingConfig(dims=2, radius=1, bsize_x=32, parvec=4, partime=2)
GRIDS = [make_grid((32, 32), "mixed", seed=s) for s in range(8)]
TENANTS = 4

#: Lockstep rounds of one launch each (8 grids coalesced): two devices
#: take alternate launches of three events, so this many rounds put
#: more than EVENT_LOG events on each queue.
ROUNDS = EVENT_LOG


def _sizes(obj) -> dict[str, int]:
    return {
        name: len(value)
        for name, value in vars(obj).items()
        if hasattr(value, "__len__") and not isinstance(value, (str, bytes))
    }


def _retained(svc: StencilService) -> dict[str, dict[str, int]]:
    sched = svc.scheduler
    out = {
        "service": _sizes(svc),
        "metrics": _sizes(svc.metrics),
        "scheduler": _sizes(sched),
    }
    for w in sched.workers:
        out[f"worker {w.index}"] = _sizes(w)
        out[f"queue {w.index}"] = _sizes(w.queue)
    return out


def _drive(svc: StencilService, rounds: int) -> None:
    for _ in range(rounds):
        tickets = [
            svc.submit(f"t{i % TENANTS}", SPEC, CONFIG, grid, 2)
            for i, grid in enumerate(GRIDS)
        ]
        svc.run_pending()
        assert all(t.result(0).status == "completed" for t in tickets)


def test_retained_sizes_do_not_grow_with_requests_served() -> None:
    svc = StencilService(
        StencilScheduler(devices=2, engine="numpy"), start=False
    )
    try:
        _drive(svc, ROUNDS)
        # the first run already filled every event ring, so a store that
        # grows per launch cannot hide behind a ring still filling up
        assert [len(w.queue.events) for w in svc.scheduler.workers] == [
            EVENT_LOG
        ] * 2
        after_n = _retained(svc)
        _drive(svc, 4 * ROUNDS)
        assert _retained(svc) == after_n
    finally:
        svc.close()


def test_drain_estimate_memo_is_bounded() -> None:
    # one queued request per distinct shape, more shapes than the memo
    # holds: the drain estimate models each, and the memo stays bounded
    shapes = [(8, 32 + i) for i in range(ESTIMATE_MEMO + 8)]
    svc = StencilService(
        StencilScheduler(devices=1, engine="numpy"),
        policy=ServicePolicy(max_queue_depth=len(shapes)),
        start=False,
    )
    try:
        for shape in shapes:
            svc.submit("t0", SPEC, CONFIG, make_grid(shape, "mixed", seed=1))
        assert svc._drain_estimate_s() > 0.0
        assert 0 < len(svc._estimates) <= ESTIMATE_MEMO
    finally:
        svc.close(drain=False)
