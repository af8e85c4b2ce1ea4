"""Warm-artifact cache: single-flight compilation, LRU-bounded pools.

A "compiled artifact" here is a :class:`~repro.runtime.host
.StencilProgram`: the generated kernel source, the area/fmax reports,
and — the expensive part — a live :class:`~repro.core.FPGAAccelerator`
whose fused native driver owns a persistent pthread worker pool.
Building one costs a C compile on a cold content-address and a pool
spawn always, so a serving layer multiplexing many tenants over few
distinct ``(kernel, config, board, engine)`` keys must reuse them.

:class:`ArtifactCache` provides exactly that:

* **content-keyed reuse** — programs are keyed on the stencil's numeric
  content (dims, radius, center, coefficient bytes — the same identity
  :mod:`repro.core.native` content-addresses compiled libraries by),
  the frozen :class:`~repro.core.blocking.BlockingConfig`, the board
  name and the requested engine, so jobs sharing a key share one warm
  program (and, transitively, one cached
  :class:`~repro.core.plan.PassPlan` — the plan cache is keyed per
  ``(config, grid_shape, boundary)`` and lives in :mod:`repro.core
  .plan`);
* **single-flight building** — concurrent first requests for the same
  key build exactly once: the first caller compiles while the rest park
  on an event and pick up the cached program (``stats["flights"]``
  counts distinct builds, ``stats["waits"]`` the parked callers);
* **bounded LRU** — at most ``capacity`` programs stay warm; evicted
  programs are :meth:`~repro.runtime.host.StencilProgram.close`\\ d so
  their worker pools are released deterministically instead of leaking
  until garbage collection.

The cache is thread-safe.  Builds happen outside the lock (a compile
must not stall unrelated keys); a build failure propagates to the
builder and wakes waiters, who then retry the build themselves (the
failure is *not* cached — transient toolchain conditions heal).
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro.core.blocking import BlockingConfig
from repro.core.stencil import StencilSpec, spec_key
from repro.errors import ConfigurationError
from repro.fpga.board import NALLATECH_385A, Board
from repro.runtime.host import StencilProgram

#: Cache keys are value tuples; :func:`~repro.core.stencil.spec_key` is
#: the stencil's numeric identity (StencilSpec carries a NumPy array, so
#: it is not hashable).
ArtifactKey = tuple


def artifact_key(
    spec: StencilSpec,
    config: BlockingConfig,
    board: Board = NALLATECH_385A,
    engine: str = "auto",
) -> ArtifactKey:
    """The cache key under which a program for this workload is stored."""
    return (spec_key(spec), config, board.name, engine)


class ArtifactCache:
    """Single-flight, LRU-bounded cache of warm :class:`StencilProgram`\\ s."""

    def __init__(self, capacity: int = 8):
        if capacity < 1:
            raise ConfigurationError(
                f"capacity must be >= 1, got {capacity}",
                param="capacity",
                value=capacity,
                constraint="an artifact cache must hold at least one program",
            )
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: OrderedDict[ArtifactKey, StencilProgram] = OrderedDict()
        self._inflight: dict[ArtifactKey, threading.Event] = {}
        self._closed = False
        self.stats = {
            "hits": 0,
            "misses": 0,
            "flights": 0,  # builds that actually ran (== distinct compiles)
            "waits": 0,  # callers that parked behind an in-flight build
            "evictions": 0,
        }

    # ------------------------------------------------------------------ #

    def get(
        self,
        spec: StencilSpec,
        config: BlockingConfig,
        board: Board = NALLATECH_385A,
        engine: str = "auto",
    ) -> StencilProgram:
        """The warm program for this key, building it at most once.

        Raises whatever :class:`StencilProgram` construction raises
        (e.g. :class:`ConfigurationError` for a design that does not
        fit); failures are not cached.
        """
        key = artifact_key(spec, config, board, engine)
        while True:
            with self._lock:
                if self._closed:
                    raise ConfigurationError(
                        "artifact cache is closed",
                        param="closed",
                        value=True,
                        constraint="get() requires an open cache",
                    )
                prog = self._entries.get(key)
                if prog is not None and not prog.closed:
                    self._entries.move_to_end(key)
                    self.stats["hits"] += 1
                    return prog
                if prog is not None:  # closed behind our back: rebuild
                    del self._entries[key]
                flight = self._inflight.get(key)
                if flight is None:
                    flight = self._inflight[key] = threading.Event()
                    self.stats["misses"] += 1
                    break  # we are the builder
                self.stats["waits"] += 1
            flight.wait()  # parked behind the in-flight build; then re-check

        evicted: list[StencilProgram] = []
        try:
            program = StencilProgram(spec, config, board, engine=engine)
        except BaseException:
            with self._lock:
                self._inflight.pop(key, None)
            flight.set()  # waiters wake and retry (failure not cached)
            raise
        with self._lock:
            self.stats["flights"] += 1
            self._entries[key] = program
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                _, old = self._entries.popitem(last=False)
                evicted.append(old)
                self.stats["evictions"] += 1
            self._inflight.pop(key, None)
        flight.set()
        for old in evicted:
            old.close()
        return program

    def get_tuned(
        self,
        spec: StencilSpec,
        shape: tuple[int, ...],
        boundary: str = "clamp",
        iterations: int = 1,
        board: Board = NALLATECH_385A,
        engine: str = "auto",
    ) -> StencilProgram:
        """The warm program for a workload, config picked by the autotuner.

        Resolves ``(spec, shape, boundary, engine)`` through the
        persistent plan-selection cache (:mod:`repro.runtime.autotune`)
        and delegates to :meth:`get` — so a tuned workload lands on the
        same single-flight, LRU-bounded program the pinned-config path
        uses, and repeated traffic pays one resolution file read plus a
        dictionary hit.
        """
        from repro.runtime.autotune import resolve_config

        config = resolve_config(
            spec, shape, boundary=boundary, iterations=iterations,
            engine=engine,
        )
        return self.get(spec, config, board, engine=engine)

    # ------------------------------------------------------------------ #

    def contains(self, key: ArtifactKey) -> bool:
        """True when a warm program is cached under ``key`` right now."""
        with self._lock:
            prog = self._entries.get(key)
            return prog is not None and not prog.closed

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def release_engines(self, board_name: str, engines: tuple[str, ...]) -> int:
        """Close and drop cached programs for a board's given engine tiers.

        Called by the scheduler when every device of a board type has
        degraded off its fast path: the native worker pools behind those
        programs will never be used again, so they are released now
        rather than at garbage collection.  Returns how many programs
        were closed.
        """
        victims: list[StencilProgram] = []
        with self._lock:
            for key in list(self._entries):
                _, _, key_board, key_engine = key
                if key_board == board_name and key_engine in engines:
                    victims.append(self._entries.pop(key))
        for prog in victims:
            prog.close()
        return len(victims)

    def close(self) -> None:
        """Close every cached program and refuse further gets (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            victims = list(self._entries.values())
            self._entries.clear()
        for prog in victims:
            prog.close()

    def snapshot(self) -> dict:
        """Counters plus current occupancy (for metrics and tests)."""
        with self._lock:
            return {**self.stats, "entries": len(self._entries)}
