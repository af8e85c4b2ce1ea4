import threading

import pytest

from perfbench.tracing import Span, Tracer, self_times


def test_self_time_subtracts_merged_children_clipped_to_the_parent():
    spans = [
        Span(0, "outer", None, 1, 0.0, 10.0),
        Span(1, "a", 0, 1, 1.0, 3.0),
        Span(2, "b", 0, 1, 2.0, 4.0),   # overlaps a: [1, 4] covered once
        Span(3, "c", 0, 1, 9.0, 12.0),  # only [9, 10] lies inside outer
        Span(4, "grandchild", 1, 1, 1.5, 2.5),
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 3.0 - 1.0)
    assert own[1] == pytest.approx(2.0 - 1.0)
    assert own[4] == pytest.approx(1.0)


class Box:
    def leaf(self):
        return 1

    def outer(self):
        return self.leaf() + self.leaf()


def test_nested_calls_on_one_thread_nest_and_self_time_excludes_children():
    tracer = Tracer()
    tracer.patch(Box, "leaf", "leaf")
    tracer.patch(Box, "outer", "outer")
    try:
        assert Box().outer() == 2
    finally:
        tracer.unpatch()
    outer = next(s for s in tracer.spans if s.name == "outer")
    leaves = [s for s in tracer.spans if s.name == "leaf"]
    assert [s.parent for s in leaves] == [outer.id, outer.id]
    own = self_times(tracer.spans)
    assert own[outer.id] == pytest.approx(
        outer.duration - sum(s.duration for s in leaves)
    )
    Box().outer()  # unpatched: records nothing
    assert len(tracer.spans) == 3


def test_spans_on_a_dispatch_thread_never_nest_under_the_client_span():
    """The client waits inside ``result`` while the dispatch thread runs
    the job: the job's span is a root of its own thread, its children
    nest under it, and the waiting span's self time is its whole wait."""
    tracer = Tracer()
    started, finish = threading.Event(), threading.Event()

    def execute():
        started.set()
        finish.wait(5)
        return leaf()

    leaf = tracer.wrap("host.leaf", lambda: 7)
    execute = tracer.wrap("scheduler.execute", execute)
    worker = threading.Thread(target=execute)

    def wait_for_reply():
        worker.start()
        started.wait(5)
        finish.set()
        worker.join(5)

    tracer.wrap("service.result", wait_for_reply)()
    assert not worker.is_alive()
    by_name = {s.name: s for s in tracer.spans}
    client, job, host = (
        by_name["service.result"], by_name["scheduler.execute"], by_name["host.leaf"]
    )
    assert client.parent is None and job.parent is None
    assert host.parent == job.id
    assert job.thread == host.thread != client.thread
    own = self_times(tracer.spans)
    assert own[client.id] == pytest.approx(client.duration)
    assert own[job.id] == pytest.approx(job.duration - host.duration)


def test_a_raising_call_still_records_its_span_and_unwinds_the_stack():
    tracer = Tracer()

    def boom():
        raise KeyError("x")

    boom = tracer.wrap("boom", boom, attrs=lambda *a: {"never": True})
    ok = tracer.wrap("ok", lambda: 1)
    with pytest.raises(KeyError):
        boom()
    ok()
    failed, after = tracer.spans
    assert failed.name == "boom" and failed.attrs is None
    assert after.parent is None  # the stack was popped


def test_attrs_see_the_value_pre_captured_before_the_call():
    tracer = Tracer()
    state = {"n": 0}

    def bump():
        state["n"] += 1

    bump = tracer.wrap(
        "bump", bump, pre=lambda a, k: state["n"],
        attrs=lambda a, k, out, before: {"changed": state["n"] != before},
    )
    bump()
    assert tracer.spans[0].attrs == {"changed": True}
