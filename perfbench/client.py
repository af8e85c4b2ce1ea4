"""The closed-loop client.

One thread steps ``in_flight`` grids in lockstep: it submits step *k*
of every grid, waits for every reply, then submits step *k+1* — a
stencil caller waits for step *k* before it submits step *k+1*, so a
slower system receives less load.  Replies are awaited oldest first.
Lockstep rather than refilling a slot per reply: refills trickle into
the queue while the service forms its next batch, so batch sizes, and
with them the modes of the latency distribution, would follow thread
timing rather than the program.  The loop has three phases on one clock:

* set-up: until the first reply (its time is returned);
* warm-up: ``warmup_s`` more seconds, checked but not counted;
* measurement: ``seconds`` seconds; a reply observed inside it counts.

Every reply is checked; a reply that is not bit-exact, a typed
failure, a ``ShedError`` at submit and a reply timeout all count as
failures of the phase they land in.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ShedError

#: Longest wait for one reply before the loop gives up (the run must end).
REPLY_TIMEOUT_S = 30.0


class Samples:
    """Append-only float64 samples in a buffer written in full up front.

    The client's own memory then stays resident from before the service
    is built, where ``perfbench/serve.py`` takes its memory baseline,
    and gives the garbage collector no objects to walk.
    """

    def __init__(self, capacity: int = 1 << 20):
        self._buf = np.full(capacity, np.nan)
        self._n = 0

    def append(self, value: float) -> None:
        if self._n == len(self._buf):
            grow = np.full(max(len(self._buf), 1024), np.nan)
            self._buf = np.concatenate([self._buf, grow])
        self._buf[self._n] = value
        self._n += 1

    def __len__(self) -> int:
        return self._n

    def values(self) -> np.ndarray:
        return self._buf[: self._n]


@dataclass
class LoopResult:
    """Counts and per-reply samples of the measured phase."""

    first_reply: float = 0.0
    first_ok: bool = False
    window: tuple[float, float] = (0.0, 0.0)
    attempted: int = 0
    failed: int = 0
    shed: int = 0
    #: Replies anywhere in the run that were not bit-exact.
    mismatched: int = 0
    timed_out: bool = False
    #: Per counted completion: submit and reply times, and (only when
    #: asked for) the service's queue wait and the scheduler job id.
    sent: Samples = field(default_factory=Samples)
    done: Samples = field(default_factory=Samples)
    queue_wait: list = field(default_factory=list)
    jobs: list = field(default_factory=list)

    @property
    def completed(self) -> int:
        return len(self.done)

    @property
    def latencies_s(self) -> np.ndarray:
        return self.done.values() - self.sent.values()


def closed_loop(
    submit,
    check,
    *,
    in_flight: int,
    warmup_s: float,
    seconds: float,
    out: LoopResult | None = None,
    detail: bool = False,
    on_reply=None,
    clock=time.monotonic,
) -> LoopResult:
    """Drive ``submit(i) -> ticket`` in a closed loop; see the module doc.

    ``check(i, reply) -> bool`` says whether request ``i``'s reply is a
    completed, bit-exact result.  With ``warmup_s == seconds == 0`` the
    loop stops at the first reply (a set-up probe).  ``out`` is the
    result to fill, so a caller can allocate its sample buffers before
    the clock starts.  ``detail`` also records each counted completion's
    queue wait and scheduler job id.  ``on_reply(now, window_start)``
    runs on the client thread after every reply.
    """
    out = LoopResult() if out is None else out
    pending: deque = deque()
    seq = 0
    w0 = w1 = None

    def counted(t: float) -> bool:
        return w0 is not None and w0 <= t < w1

    while True:
        while not pending or seq % in_flight:
            sent = clock()
            try:
                pending.append((seq, sent, submit(seq)))
            except ShedError as err:
                if counted(sent):
                    out.attempted += 1
                    out.failed += 1
                    out.shed += 1
                time.sleep(min(max(err.retry_after_s or 0.0, 1e-3), 0.1))
                break
            finally:
                seq += 1
        if not pending:
            if w1 is not None and clock() >= w1:
                break
            continue
        i, sent, ticket = pending.popleft()
        try:
            reply = ticket.result(REPLY_TIMEOUT_S)
        except TimeoutError:
            out.timed_out = True
            if counted(clock()):
                out.attempted += 1
                out.failed += 1
            break
        done = clock()
        ok = check(i, reply)
        if reply.status == "completed" and not ok:
            out.mismatched += 1
        if w0 is None:
            out.first_reply, out.first_ok = done, ok
            w0 = done + warmup_s
            w1 = w0 + seconds
        elif counted(done):
            out.attempted += 1
            if ok:
                out.sent.append(sent)
                out.done.append(done)
                if detail:
                    out.queue_wait.append(reply.queue_wait_s)
                    out.jobs.append(reply.job_result.job_id)
            else:
                out.failed += 1
        if on_reply is not None:
            on_reply(done, w0)
        if done >= w1:
            break
    out.window = (w0, w1) if w0 is not None else (0.0, 0.0)
    # replies still outstanding are checked, never counted
    for i, _, ticket in pending:
        try:
            reply = ticket.result(REPLY_TIMEOUT_S)
        except TimeoutError:
            out.timed_out = True
            break
        if reply.status == "completed" and not check(i, reply):
            out.mismatched += 1
    return out

