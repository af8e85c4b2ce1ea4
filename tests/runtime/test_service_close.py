"""Shutdown-ordering regression tests for StencilService.close().

ISSUE 9 satellite: closing the service — from a second thread, under
load, even mid-way through an in-flight coalesced batch — must never
strand a ticket.  Every admitted request terminates with either a
completed result or a *typed* error, and a late completion racing the
shutdown shed is discarded (first writer wins), never double-counted.
"""

from __future__ import annotations

import threading
import time

from repro import errors as errors_mod
from repro.core import BlockingConfig, StencilSpec, make_grid
from repro.errors import ConfigurationError, ReproError, ShedError
from repro.runtime import ServicePolicy, StencilScheduler, StencilService
from repro.runtime.service import ServiceResult, ServiceTicket

SPEC = StencilSpec.star(2, 1)
CONFIG = BlockingConfig(dims=2, radius=1, bsize_x=64, parvec=4, partime=2)
GRID = make_grid((16, 64), "mixed", seed=7)

#: Every name a failed ServiceResult may legitimately carry: the typed
#: error taxonomy, discovered rather than hand-listed.
TYPED_ERROR_NAMES = {
    name
    for name, obj in vars(errors_mod).items()
    if isinstance(obj, type) and issubclass(obj, ReproError)
}


def _service(**policy_kwargs) -> StencilService:
    policy_kwargs.setdefault("max_queue_depth", 64)
    return StencilService(
        StencilScheduler(devices=2, engine="numpy"),
        policy=ServicePolicy(**policy_kwargs),
        start=True,
    )


def _drain_typed(tickets: list) -> list:
    """Every ticket terminates; failures are typed.  Returns results."""
    results = []
    for ticket in tickets:
        assert ticket.wait(30.0), f"ticket {ticket.request_id} stranded"
        result = ticket.result(0)
        assert result.status in ("completed", "failed")
        if result.status == "failed":
            assert result.error_type in TYPED_ERROR_NAMES, result.error_type
        results.append(result)
    return results


def test_close_from_second_thread_under_load() -> None:
    svc = _service()
    tickets = []
    closed = threading.Event()

    def closer() -> None:
        time.sleep(0.02)  # let real load build first
        svc.close(drain=True, timeout_s=30.0)
        closed.set()

    thread = threading.Thread(target=closer)
    thread.start()
    while not closed.is_set():
        try:
            tickets.append(
                svc.submit(
                    tenant="alice", spec=SPEC, config=CONFIG,
                    grid=GRID, iterations=1,
                )
            )
        except ShedError:
            time.sleep(0.001)  # queue full: typed backpressure, keep going
        except ConfigurationError:
            break  # service closed to new work: the expected typed end
    thread.join(60.0)
    assert not thread.is_alive()
    assert tickets, "stress produced no load"
    _drain_typed(tickets)


def test_close_mid_coalesced_batch_yields_typed_errors() -> None:
    # queue one coalescable batch while no dispatch thread exists, then
    # start it and close with a join budget too small to let it drain:
    # the in-flight batch must either complete or fail typed — never hang
    svc = StencilService(
        StencilScheduler(devices=1, engine="numpy"),
        policy=ServicePolicy(
            max_queue_depth=64, coalesce_max_batch=8
        ),
        start=False,
    )
    tickets = [
        svc.submit(
            tenant="bob", spec=SPEC, config=CONFIG, grid=GRID, iterations=50
        )
        for _ in range(8)
    ]
    svc.start()
    time.sleep(0.01)  # let the dispatch thread claim the batch
    svc.close(drain=True, timeout_s=0.05)
    _drain_typed(tickets)


def test_close_without_drain_fails_queued_work_typed() -> None:
    svc = StencilService(
        StencilScheduler(devices=1, engine="numpy"),
        policy=ServicePolicy(max_queue_depth=16),
        start=False,
    )
    tickets = [
        svc.submit(
            tenant="carol", spec=SPEC, config=CONFIG, grid=GRID, iterations=1
        )
        for _ in range(4)
    ]
    svc.close(drain=False)
    for result in _drain_typed(tickets):
        assert result.status == "failed"
        assert result.error_type == "ShedError"


def test_ticket_fulfilment_is_first_writer_wins() -> None:
    ticket = ServiceTicket("req-1", "alice")
    first = ServiceResult(request_id="req-1", tenant="alice",
                          status="completed")
    late = ServiceResult(request_id="req-1", tenant="alice", status="failed",
                         error_type="SchedulerShutdownError")
    assert ticket._fulfil(first) is True
    assert ticket._fulfil(late) is False  # late writer discarded
    assert ticket.result(0).status == "completed"


def test_close_is_idempotent_and_joins_the_dispatch_thread() -> None:
    svc = _service()
    ticket = svc.submit(
        tenant="dave", spec=SPEC, config=CONFIG, grid=GRID, iterations=1
    )
    svc.close(drain=True, timeout_s=30.0)
    svc.close(drain=True, timeout_s=30.0)  # second close is a no-op
    assert svc._thread is not None and not svc._thread.is_alive()
    _drain_typed([ticket])
