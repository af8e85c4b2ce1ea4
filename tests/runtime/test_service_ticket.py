"""The ticket a request's submitter waits on (``ServiceTicket``).

A ticket is a latch: :meth:`~ServiceTicket._fulfil` stores the terminal
result once (first writer wins) and releases every waiter.  These pin
that contract under real thread races.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.runtime.service import ServiceResult, ServiceTicket

N_THREADS = 8


def reply(status: str = "completed", tag: str = "") -> ServiceResult:
    return ServiceResult(request_id="t/0", tenant="t", status=status, error=tag)


def test_racing_fulfils_have_exactly_one_winner() -> None:
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        for _ in range(20):
            ticket = ServiceTicket("t/0", "t")
            start = threading.Barrier(N_THREADS)
            won: list[int] = []

            def fulfil(i: int) -> None:
                start.wait()
                if ticket._fulfil(reply(tag=str(i))):
                    won.append(i)

            threads = [
                threading.Thread(target=fulfil, args=(i,))
                for i in range(N_THREADS)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(10.0)
            assert not any(t.is_alive() for t in threads)
            assert len(won) == 1
            # the stored result is the winner's, whoever lost
            assert ticket.result(0).error == str(won[0])
    finally:
        sys.setswitchinterval(interval)


def test_wait_zero_reads_the_state_without_blocking() -> None:
    ticket = ServiceTicket("t/0", "t")
    assert ticket.wait(0) is False
    assert ticket.wait(-1.0) is False  # a spent budget does not block
    ticket._fulfil(reply())
    assert ticket.wait(0) is True
    assert ticket.wait(0) is True  # waiting again never consumes the latch


def test_wait_none_returns_once_another_thread_fulfils() -> None:
    ticket = ServiceTicket("t/0", "t")
    answer = reply()
    timer = threading.Timer(0.05, ticket._fulfil, args=(answer,))
    timer.start()
    try:
        assert ticket.wait(None) is True
        assert ticket.result() is answer
    finally:
        timer.join()


def test_every_concurrent_waiter_wakes() -> None:
    """One release wakes them all: each waiter hands the latch on.  The
    waiters block with no timeout, so one left behind stays blocked."""
    ticket = ServiceTicket("t/0", "t")
    woke: list[bool] = []
    lock = threading.Lock()
    blocked = threading.Barrier(N_THREADS + 1)

    def waiter() -> None:
        blocked.wait()
        ok = ticket.wait(None)
        with lock:
            woke.append(ok)

    threads = [
        threading.Thread(target=waiter, daemon=True) for _ in range(N_THREADS)
    ]
    for t in threads:
        t.start()
    blocked.wait()
    time.sleep(0.05)  # let the waiters block on the latch
    assert ticket._fulfil(reply())
    for t in threads:
        t.join(10.0)
    assert not any(t.is_alive() for t in threads)
    assert woke == [True] * N_THREADS


def test_result_times_out_on_an_unfulfilled_ticket() -> None:
    ticket = ServiceTicket("t/7", "t")
    started = time.monotonic()
    with pytest.raises(TimeoutError, match="t/7"):
        ticket.result(0.05)
    assert time.monotonic() - started >= 0.04
    with pytest.raises(TimeoutError):
        ticket.result(0)


def test_done_tracks_fulfilment() -> None:
    ticket = ServiceTicket("t/0", "t")
    assert ticket.done is False
    first, late = reply(), reply("failed")
    assert ticket._fulfil(first) is True
    assert ticket.done is True
    assert ticket._fulfil(late) is False
    assert ticket.done is True
    assert ticket.result(0) is first
