"""In-memory spans recorded around wrapped entry points.

A :class:`Tracer` replaces a method on its class with a wrapper that
records one :class:`Span` per call: name, start, end, and parent — the
innermost span still open *on the same thread*.  Spans opened on the
service's dispatch thread therefore nest among themselves and never
under the client thread's ``submit``/``result`` spans.  Spans stay in
memory until the benchmark writes them out at exit.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict


class Span:
    """One call of a wrapped entry point (times from ``time.monotonic``)."""

    __slots__ = ("id", "name", "parent", "thread", "start", "end", "attrs")

    def __init__(self, id, name, parent, thread, start, end=None, attrs=None):
        self.id = id
        self.name = name
        self.parent = parent
        self.thread = thread
        self.start = start
        self.end = end
        self.attrs = attrs

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans for the methods it patches; :meth:`unpatch` restores them."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._ids = itertools.count()
        self._patched: list[tuple[type, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, attrs=None, pre=None):
        """``fn`` wrapped to record a span named ``name`` per call.

        ``pre(args, kwargs)`` runs before the call; ``attrs(args, kwargs,
        out, before)`` runs after a successful call, gets ``pre``'s value
        and returns the span's attribute dict.
        """
        spans, ids, stack_of = self.spans, self._ids, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            span = Span(
                next(ids), name, stack[-1].id if stack else None,
                threading.get_ident(), 0.0,
            )
            before = pre(args, kwargs) if pre is not None else None
            stack.append(span)
            span.start = time.monotonic()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.monotonic()
                stack.pop()
                spans.append(span)
            if attrs is not None:
                span.attrs = attrs(args, kwargs, out, before)
            return out

        return traced

    def patch(self, owner, attr: str, name: str, attrs=None, pre=None) -> None:
        """Replace ``owner.attr`` with its traced wrapper."""
        original = owner.__dict__[attr]
        setattr(owner, attr, self.wrap(name, original, attrs, pre))
        self._patched.append((owner, attr, original))

    def unpatch(self) -> None:
        """Restore every patched attribute (idempotent)."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def self_times(spans) -> dict[int, float]:
    """Span id -> its duration minus the part its children cover.

    Children are the spans whose ``parent`` is the span's id; their
    intervals are clipped to the parent's and merged before being
    subtracted, so overlapping children are not counted twice.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out: dict[int, float] = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for start, end in sorted(children.get(s.id, ())):
            start, end = max(start, reach), min(end, s.end)
            if end > start:
                covered += end - start
                reach = end
        out[s.id] = s.duration - covered
    return out
