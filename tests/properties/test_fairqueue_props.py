"""Property-based invariants of the weighted-fair (DRR) queue.

For any interleaving of pushes and pops:

* conservation — every accepted item pops exactly once, none invented;
* per-tenant FIFO — a tenant's items leave in arrival order;
* no starvation — once the queue drains, every backlogged tenant's
  first item is dispatched within one full round of the total weight;
* exact DRR shares — while every tenant stays backlogged, tenant ``t``
  receives between ``r * w_t`` and ``(r + 1) * w_t`` of the first
  ``N`` dispatches, where ``r = N // sum(w)`` (share converges to
  ``w_t / sum(w)``);
* eviction — ``evict_lowest`` only ever sheds the minimum-priority
  entry strictly below the bar.
"""

from __future__ import annotations

from collections import defaultdict

from hypothesis import given
from hypothesis import strategies as st

from repro.runtime import WeightedFairQueue

TENANTS = ("a", "b", "c", "d")

WEIGHTS = st.fixed_dictionaries(
    {t: st.integers(min_value=1, max_value=4) for t in TENANTS}
)
# An op sequence: a tenant name = push for that tenant, None = pop.
OPS = st.lists(
    st.one_of(st.none(), st.sampled_from(TENANTS)), max_size=200
)


@given(weights=WEIGHTS, ops=OPS)
def test_conservation_and_per_tenant_fifo(weights, ops) -> None:
    wfq = WeightedFairQueue(capacity=256)
    pushed: dict[str, list[int]] = defaultdict(list)
    popped: dict[str, list[int]] = defaultdict(list)
    next_item = 0
    for op in ops:
        if op is None:
            entry = wfq.pop()
            if entry is not None:
                popped[entry.tenant].append(entry.item)
        else:
            pushed[op].append(next_item)
            wfq.push(op, weights[op], priority=0, item=next_item)
            next_item += 1
    for entry in wfq.drain():
        popped[entry.tenant].append(entry.item)
    assert wfq.depth == 0
    # exactly what went in came out, in arrival order per tenant
    assert popped == pushed


@given(weights=WEIGHTS, ops=OPS)
def test_no_tenant_starves_within_one_round(weights, ops) -> None:
    wfq = WeightedFairQueue(capacity=256)
    for op in ops:
        if op is None:
            wfq.pop()
        else:
            wfq.push(op, weights[op], priority=0, item=None)
    backlogged = {t for t in TENANTS if wfq.depth_for(t) > 0}
    order = [entry.tenant for entry in wfq.drain()]
    # one DRR round serves every backlogged tenant: its first dispatch
    # lands within the round's total weight (plus the in-flight turn)
    bound = sum(weights.values()) + max(weights.values())
    for tenant in backlogged:
        assert order.index(tenant) < bound


@given(weights=WEIGHTS, pops=st.integers(min_value=1, max_value=64))
def test_backlogged_shares_match_weights_exactly(weights, pops) -> None:
    wfq = WeightedFairQueue(capacity=1024)
    # deep backlog: no tenant's FIFO can drain within `pops` dispatches
    for _ in range(pops):
        for t in TENANTS:
            wfq.push(t, weights[t], priority=0, item=None)
    got = defaultdict(int)
    for _ in range(pops):
        got[wfq.pop().tenant] += 1
    # strict rounds: r full rounds give r*w each, the partial round at
    # most one more turn -- so shares converge to weight/total
    rounds = pops // sum(weights.values())
    for t in TENANTS:
        assert rounds * weights[t] <= got[t] <= (rounds + 1) * weights[t]


@given(
    entries=st.lists(
        st.tuples(st.sampled_from(TENANTS), st.integers(0, 5)),
        min_size=1,
        max_size=50,
    ),
    bar=st.integers(0, 6),
)
def test_evict_lowest_sheds_minimum_priority_below_bar(entries, bar) -> None:
    wfq = WeightedFairQueue(capacity=64)
    for tenant, priority in entries:
        wfq.push(tenant, 1, priority=priority, item=None)
    below = sorted(p for _, p in entries if p < bar)
    victim = wfq.evict_lowest(below_priority=bar)
    if not below:
        assert victim is None
        assert wfq.depth == len(entries)
    else:
        assert victim is not None
        assert victim.priority == below[0]  # minimum below the bar
        assert wfq.depth == len(entries) - 1
        # survivors are intact and still dispatchable
        assert len(wfq.drain()) == len(entries) - 1


# An op: ("push", tenant, expires, priority), ("pop",), ("evict", bar)
# or ("remove", parity) -- remove_if over every entry whose seq has that
# parity.
EXPIRY_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("push"), st.sampled_from(TENANTS), st.booleans(),
            st.integers(0, 3),
        ),
        st.tuples(st.just("pop")),
        st.tuples(st.just("evict"), st.integers(0, 4)),
        st.tuples(st.just("remove"), st.integers(0, 1)),
    ),
    max_size=120,
)


@given(ops=EXPIRY_OPS)
def test_expiring_count_matches_a_scan(ops) -> None:
    """``expiring`` is kept on push and every removal path; it always
    equals a scan of the queued entries."""
    wfq = WeightedFairQueue(capacity=64)
    for op in ops:
        if op[0] == "push":
            if wfq.depth < wfq.capacity:
                _, tenant, expires, priority = op
                wfq.push(tenant, 1, priority, item=None, expires=expires)
        elif op[0] == "pop":
            wfq.pop()
        elif op[0] == "evict":
            wfq.evict_lowest(below_priority=op[1])
        else:
            wfq.remove_if(lambda e, parity=op[1]: e.seq % 2 == parity)
        queued = [e for q in wfq._queues.values() for e in q]
        assert wfq.expiring == sum(e.expires for e in queued)
    wfq.drain()
    assert wfq.expiring == 0
