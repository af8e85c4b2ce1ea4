"""Admission-control primitives: token buckets and a weighted-fair queue.

These are the serving layer's building blocks (used by
:mod:`repro.runtime.service`), kept free of any service policy so they
can be reasoned about — and property-tested — in isolation:

* :class:`TokenBucket` — the classic per-tenant rate limiter: ``rate``
  tokens per second refill up to ``burst``; an acquire either takes a
  token or reports how long until one is available (the ``retry_after``
  hint surfaced in :class:`~repro.errors.ShedError`).
* :class:`WeightedFairQueue` — a bounded deficit-round-robin queue over
  per-tenant FIFOs.  With unit job cost and integer weights the
  schedule is exact: while every tenant stays backlogged, each round
  dispatches precisely ``weight`` jobs per tenant, and any backlogged
  tenant is served within one round of the total weight — so no tenant
  starves, for *any* interleaving of pushes and pops (property-tested
  in ``tests/properties/test_fairqueue_props.py``).

Neither class locks internally; callers (the service) serialize access
under their own mutex.  Neither reads the wall clock; callers pass
``now`` explicitly, which keeps the classes deterministic under test.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import Any

from repro.errors import ConfigurationError

#: Floor on every ``retry_after_s`` hint the admission layer emits.  A
#: raw deficit of ``epsilon / rate`` (or a momentarily empty backlog)
#: can round to ``0.0`` — a hint that tells clients to hammer the
#: service in a zero-delay retry loop.  Every surfaced hint is clamped
#: to this positive floor instead (invariant: ``retry_after_s > 0``,
#: asserted by the admission tests).
MIN_RETRY_AFTER_S = 1e-3


class TokenBucket:
    """``rate`` tokens/second refilling up to ``burst``; never blocks.

    ``rate=None`` disables metering (every acquire succeeds) — the
    default tenant quota.  Time is supplied by the caller, so the
    bucket itself is a pure state machine.
    """

    def __init__(self, rate: float | None, burst: float = 8.0):
        if rate is not None and rate <= 0:
            raise ConfigurationError(
                f"rate must be > 0 (or None for unmetered), got {rate}",
                param="rate",
                value=rate,
                constraint="token refill rate must be positive",
            )
        if burst < 1:
            raise ConfigurationError(
                f"burst must be >= 1, got {burst}",
                param="burst",
                value=burst,
                constraint="a bucket must hold at least one token",
            )
        self.rate = rate
        self.burst = float(burst)
        self.tokens = float(burst)
        self._last_s: float | None = None

    def try_acquire(self, now_s: float, tokens: float = 1.0) -> float:
        """Take ``tokens`` if available; returns the retry-after hint.

        ``0.0`` means the acquire succeeded.  A positive return is the
        time (seconds) until the bucket will hold enough tokens — never
        less than :data:`MIN_RETRY_AFTER_S`, so a hair's-breadth deficit
        cannot hand clients a zero-delay retry hint; the tokens were
        *not* taken.
        """
        if self.rate is None:
            return 0.0
        if self._last_s is not None and now_s > self._last_s:
            self.tokens = min(
                self.burst, self.tokens + (now_s - self._last_s) * self.rate
            )
        self._last_s = now_s
        if self.tokens >= tokens:
            self.tokens -= tokens
            return 0.0
        return max((tokens - self.tokens) / self.rate, MIN_RETRY_AFTER_S)


@dataclass
class QueueEntry:
    """One queued item with its fairness/priority metadata."""

    tenant: str
    priority: int
    seq: int  # admission order, for deterministic tie-breaks
    item: Any = field(repr=False)
    #: The item can expire while queued (the caller's sweep has work).
    expires: bool = False


class WeightedFairQueue:
    """Bounded deficit-round-robin queue over per-tenant FIFOs.

    ``push`` rejects nothing itself — the caller checks :attr:`depth`
    against capacity first and applies its overflow policy (that is
    where shed-lowest-priority lives); pushing past ``capacity`` raises
    :class:`ConfigurationError` to catch caller bugs.

    Fairness: each tenant has an integer ``weight`` (captured at push
    time).  Tenants with backlog sit in a round-robin ring; on its turn
    a tenant earns ``weight`` credits and dispatches that many jobs
    (fewer if its FIFO drains), then goes to the back of the ring.

    :attr:`expiring` counts queued entries pushed with ``expires=True``,
    kept current on every push and removal, so a caller can skip an
    expiry sweep that has nothing to find without scanning.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ConfigurationError(
                f"capacity must be >= 1, got {capacity}",
                param="capacity",
                value=capacity,
                constraint="a bounded queue must admit at least one job",
            )
        self.capacity = capacity
        self._queues: dict[str, deque[QueueEntry]] = {}
        self._weights: dict[str, int] = {}
        self._ring: deque[str] = deque()
        self._in_ring: set[str] = set()
        self._credit: dict[str, int] = {}
        self._current: str | None = None
        self._size = 0
        self._seq = 0
        self._expiring = 0

    # -- introspection -------------------------------------------------- #

    @property
    def depth(self) -> int:
        return self._size

    @property
    def expiring(self) -> int:
        """Queued entries pushed with ``expires=True``."""
        return self._expiring

    def depth_for(self, tenant: str) -> int:
        q = self._queues.get(tenant)
        return len(q) if q else 0

    def __iter__(self) -> Iterator[QueueEntry]:
        """Every queued entry, tenant by tenant, each tenant in FIFO order."""
        for q in self._queues.values():
            yield from q

    # -- mutation -------------------------------------------------------- #

    def push(
        self,
        tenant: str,
        weight: int,
        priority: int,
        item: Any,
        expires: bool = False,
    ) -> QueueEntry:
        """Append an item to ``tenant``'s FIFO; returns its entry."""
        if weight < 1:
            raise ConfigurationError(
                f"weight must be >= 1, got {weight}",
                param="weight",
                value=weight,
                constraint="zero-weight tenants would starve",
            )
        if self._size >= self.capacity:
            raise ConfigurationError(
                f"queue is full ({self.capacity}); caller must shed first",
                param="capacity",
                value=self.capacity,
                constraint="push() requires depth < capacity",
            )
        entry = QueueEntry(
            tenant=tenant, priority=priority, seq=self._seq, item=item,
            expires=expires,
        )
        self._seq += 1
        self._expiring += expires
        self._weights[tenant] = weight
        q = self._queues.get(tenant)
        if q is None:
            q = self._queues[tenant] = deque()
        q.append(entry)
        self._size += 1
        if tenant not in self._in_ring and tenant != self._current:
            self._ring.append(tenant)
            self._in_ring.add(tenant)
        return entry

    def pop(self) -> QueueEntry | None:
        """Next entry under deficit round-robin, or ``None`` when empty."""
        if self._size == 0:
            self._current = None
            return None
        while True:
            if self._current is None:
                tenant = self._ring.popleft()
                self._in_ring.discard(tenant)
                if not self._queues.get(tenant):
                    self._credit[tenant] = 0
                    continue  # stale ring slot (tenant drained or was shed)
                self._current = tenant
                self._credit[tenant] = self._weights[tenant]
            tenant = self._current
            q = self._queues.get(tenant)
            if q and self._credit.get(tenant, 0) >= 1:
                self._credit[tenant] -= 1
                entry = q.popleft()
                self._size -= 1
                self._expiring -= entry.expires
                if not q:  # drained: turn ends, credit does not bank
                    self._credit[tenant] = 0
                    self._current = None
                return entry
            # turn over: still backlogged -> back of the ring
            if q and tenant not in self._in_ring:
                self._ring.append(tenant)
                self._in_ring.add(tenant)
            self._current = None

    def evict_lowest(self, below_priority: int) -> QueueEntry | None:
        """Shed the lowest-priority queued entry strictly below the bar.

        Ties break toward the *newest* entry (shedding late arrivals
        preserves more already-earned queue positions).  Returns the
        evicted entry (the caller fails its ticket typed), or ``None``
        when nothing qualifies.
        """
        victim: QueueEntry | None = None
        for entry in self:
            if entry.priority >= below_priority:
                continue
            if (
                victim is None
                or entry.priority < victim.priority
                or (entry.priority == victim.priority and entry.seq > victim.seq)
            ):
                victim = entry
        if victim is not None:
            self._queues[victim.tenant].remove(victim)
            self._size -= 1
            self._expiring -= victim.expires
        return victim

    def remove_if(self, predicate) -> list[QueueEntry]:
        """Remove and return every queued entry matching ``predicate``.

        Used by the service's queue-timeout sweep; preserves per-tenant
        FIFO order among survivors.
        """
        removed: list[QueueEntry] = []
        for tenant, q in self._queues.items():
            keep = deque()
            for entry in q:
                if predicate(entry):
                    removed.append(entry)
                    self._expiring -= entry.expires
                else:
                    keep.append(entry)
            if len(keep) != len(q):
                self._queues[tenant] = keep
        self._size -= len(removed)
        return removed

    def drain(self) -> list[QueueEntry]:
        """Remove and return everything, in fair-dispatch order."""
        out: list[QueueEntry] = []
        while True:
            entry = self.pop()
            if entry is None:
                return out
            out.append(entry)
