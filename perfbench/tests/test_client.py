import itertools
from dataclasses import dataclass

import numpy as np

from perfbench.client import LoopResult, Samples, closed_loop
from perfbench.stats import bit_exact
from repro.errors import ShedError


@dataclass
class Reply:
    status: str
    result: object = None
    queue_wait_s: float = 0.0
    job_result: object = None


class Ticket:
    def __init__(self, reply):
        self.reply = reply

    def result(self, timeout=None):
        return self.reply


def fake_clock():
    """One tick per read, so windows are counted in clock reads."""
    ticks = itertools.count()
    return lambda: float(next(ticks))


GOLDEN = np.arange(4, dtype=np.float32)


def check(i, reply):
    return reply.status == "completed" and bit_exact(reply.result, GOLDEN)


def test_a_shed_at_submit_counts_as_an_attempt_that_failed():
    def submit(i):
        if i in (5, 6):
            raise ShedError("queue full", retry_after_s=0.0)
        return Ticket(Reply("completed", GOLDEN.copy()))

    out = closed_loop(submit, check, in_flight=1, warmup_s=0.0, seconds=30.0,
                      clock=fake_clock())
    assert out.shed == 2
    assert out.failed == 2
    assert out.attempted == out.completed + 2
    assert out.mismatched == 0


def test_a_flipped_bit_is_a_mismatch_and_a_failure():
    def submit(i):
        result = GOLDEN.copy()
        if i == 3:
            result.view(np.uint32)[2] ^= 1
        return Ticket(Reply("completed", result))

    out = closed_loop(submit, check, in_flight=2, warmup_s=0.0, seconds=30.0,
                      clock=fake_clock())
    assert out.mismatched == 1
    assert out.failed == 1
    assert out.attempted == out.completed + 1


def test_a_typed_failure_counts_as_failed_but_not_as_a_mismatch():
    def submit(i):
        if i == 4:
            return Ticket(Reply("failed"))
        return Ticket(Reply("completed", GOLDEN.copy()))

    out = closed_loop(submit, check, in_flight=1, warmup_s=0.0, seconds=30.0,
                      clock=fake_clock())
    assert (out.failed, out.mismatched) == (1, 0)


def test_warmup_replies_are_checked_but_not_counted():
    replies = []

    def submit(i):
        replies.append(i)
        return Ticket(Reply("completed", GOLDEN.copy()))

    out = closed_loop(submit, check, in_flight=1, warmup_s=10.0, seconds=10.0,
                      clock=fake_clock())
    assert 0 < out.attempted < len(replies) - 1
    assert out.window[1] - out.window[0] == 10.0
    assert all(out.window[0] <= done < out.window[1] for done in out.done.values())


def test_a_setup_probe_stops_at_the_first_reply():
    sent = []

    def submit(i):
        sent.append(i)
        return Ticket(Reply("completed", GOLDEN.copy()))

    out = closed_loop(submit, check, in_flight=4, warmup_s=0.0, seconds=0.0,
                      clock=fake_clock())
    assert out.first_ok
    assert out.attempted == 0 and out.completed == 0
    assert sent == [0, 1, 2, 3]  # the rest of the window is drained, unsent


def test_the_client_steps_its_grids_in_lockstep():
    events = []

    class Logged(Ticket):
        def __init__(self, i):
            super().__init__(Reply("completed", GOLDEN.copy()))
            self.i = i

        def result(self, timeout=None):
            events.append(("reply", self.i))
            return self.reply

    def submit(i):
        events.append(("submit", i))
        return Logged(i)

    closed_loop(submit, check, in_flight=3, warmup_s=0.0, seconds=20.0,
                clock=fake_clock())
    # every wave is 3 submits, then their 3 replies oldest first
    waves = [events[k:k + 6] for k in range(0, len(events) - 5, 6)]
    assert len(waves) > 2
    for n, wave in enumerate(waves):
        ids = [3 * n + j for j in range(3)]
        assert wave == [("submit", i) for i in ids] + [("reply", i) for i in ids]


def test_the_loop_fills_the_result_it_is_given():
    out = LoopResult()
    got = closed_loop(lambda i: Ticket(Reply("completed", GOLDEN.copy())), check,
                      in_flight=1, warmup_s=0.0, seconds=10.0, out=out,
                      clock=fake_clock())
    assert got is out
    assert out.completed > 0 and len(out.sent) == out.completed


def test_samples_keep_every_value_past_their_capacity():
    samples = Samples(capacity=2)
    for value in (1.0, 2.0, 3.0):
        samples.append(value)
    assert len(samples) == 3
    assert samples.values().tolist() == [1.0, 2.0, 3.0]
