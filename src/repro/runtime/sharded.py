"""Fault-isolated sharded execution across N simulated devices.

One grid, N boards: a :class:`~repro.core.sharding.ShardPlan` splits the
grid along the streamed axis into halo-extended sub-grids, each running
on its own :class:`~repro.core.FPGAAccelerator`.  Iterations execute as
lockstep *compute-pass → halo-exchange* rounds: every device advances
its sub-grid by one hardware pass (at most ``partime`` steps), then
every cut edge ships ``partime * radius`` rows of freshly-computed
interior to the neighbor's halo zone through a
:class:`~repro.core.channels.Channel`, guarded end to end by a CRC32
computed at the sender — a corrupted or stalled transfer is detected at
the receiver and retried from the sender's intact interior, exactly
like a PCIe transfer in :mod:`repro.runtime.host`.  The result is
bit-exact against the single-device engine for every boundary mode
(see :mod:`repro.core.sharding` for the argument, and the hypothesis
equivalence suite in ``tests/properties/test_sharding_props.py``).

Failure domains are per shard:

* **Detected fault mid-pass** (SEU, corrupted channel item, wedged
  FIFO): only that shard rolls back, to its own
  :class:`~repro.runtime.checkpoint.CheckpointManager` snapshot, and
  replays its tail alone — neighbors re-serve the halo strips they
  already sent from a bounded host-side cache keyed by pass index, so
  recovery cost scales with the snapshot distance of *one* shard, not
  with the whole run (``ShardedStats.replayed_passes`` vs a whole-run
  retry's ``passes * shards``; gated in ``BENCH_sharding.json``).
* **Board lost outright** (:class:`~repro.faults.DeviceLossFault`,
  polled at pass boundaries): the lost shard's state is restored from
  its snapshots and replayed on a survivor, the global grid is
  recomposed from shard interiors — exact at a pass boundary — and the
  run re-shards onto the survivors.  With no survivor left the run
  fails with a typed :class:`~repro.errors.DeviceLostError`.

Each board's detected faults are counted (:attr:`ShardedRunner
.device_faults`) and never change its engine mid-run: the scheduler
settles every backing worker's circuit breaker from those counts after
the run.

Every replay — after a fault mid-pass or after a board loss — is the
same loop (:meth:`ShardedRunner._advance`), so a fault that strikes
during a loss replay rolls back and retries like any other.  The
per-shard counters are :class:`~repro.core.AcceleratorStats`, summed
with :func:`~repro.runtime.checkpoint.merge_counters`; the exchange hop
is :meth:`~repro.core.channels.Channel.hop` and the golden-CRC check
:func:`~repro.core.accelerator.golden_check`, both shared with the
single-device accelerator.  A golden CRC given to
:meth:`ShardedRunner.run` is checked once, on the recomposed result; a
mismatch raises :class:`~repro.errors.FaultDetectedError` (no replay).

Simulated time: each device carries its own clock, advanced by the
performance model's per-pass time for its sub-grid shape; exchanges are
serialized on the host link at ``PCIE_GBPS`` (:mod:`repro.runtime.host`)
and every round ends in a lockstep barrier (all clocks snap to the
maximum).  Host↔device scatter and gather transfers are deliberately
*not* charged — the clock covers compute plus inter-shard exchange,
which is what
:meth:`repro.models.performance.PerformanceModel.predict_sharded`
predicts (validated in ``tests/models/test_performance.py``).
:attr:`ShardedRunner.sim_time_s` reads the lockstep time a run has
spent, after a raise too.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import partial

import numpy as np

from repro.core.accelerator import (
    AcceleratorStats,
    FPGAAccelerator,
    check_engine,
    golden_check,
)
from repro.core.blocking import BlockingConfig
from repro.core.channels import Channel
from repro.core.sharding import HaloEdge, ShardPlan
from repro.core.stencil import StencilSpec
from repro.errors import (
    ConfigurationError,
    DeviceLostError,
    FaultDetectedError,
    HaloExchangeError,
)
from repro.faults import hooks as fault_hooks
from repro.faults.checksum import crc32_array
from repro.fpga.board import NALLATECH_385A
from repro.models.performance import PerformanceModel
from repro.runtime.checkpoint import CheckpointManager, as_manager, merge_counters
from repro.runtime.host import PCIE_GBPS

#: Host-link bandwidth that prices halo exchange, in bytes per second.
_LINK_BPS = PCIE_GBPS * 1e9


@dataclass
class ShardedStats:
    """Accounting of one sharded run (totals across re-shard segments)."""

    shards: int
    #: Global compute passes completed (one pass = all live shards).
    passes: int = 0
    steps_executed: int = 0
    #: Halo strips delivered / bytes moved on the link / CRC-retry count.
    exchanges: int = 0
    exchange_bytes: int = 0
    exchange_retries: int = 0
    #: Halo CRC mismatches detected at receivers (each one retried).
    halo_detections: int = 0
    #: Cached strips re-served to a replaying shard by its neighbors.
    halo_reserved: int = 0
    #: Shard-granular recovery accounting (summed over per-shard
    #: :class:`~repro.runtime.checkpoint.CheckpointManager` instances).
    rollbacks: int = 0
    replayed_passes: int = 0
    checkpoints: int = 0
    #: Boards lost / re-shard events.
    devices_lost: int = 0
    reshards: int = 0
    #: Lockstep simulated time (compute + exchange; see module docstring).
    sim_time_s: float = 0.0
    output_crc32: int | None = None


@dataclass
class ShardedResult:
    """Outcome of one :meth:`ShardedRunner.run` call."""

    grid: np.ndarray
    stats: ShardedStats
    plan: ShardPlan


class _ShardDevice:
    """One simulated board: its accelerator and engine, clock and fault
    history."""

    __slots__ = ("index", "acc", "engine", "clock_s", "faults", "lost")

    def __init__(self, index: int, acc: FPGAAccelerator):
        self.index = index
        self.acc = acc
        self.engine = acc.resolved_engine
        self.clock_s = 0.0
        self.faults = 0
        self.lost = False


class _Segment:
    """Live state of one shard layout, from its first pass to the run's
    end or the next board loss.

    Holds the sub-grids, one :class:`~repro.core.AcceleratorStats` and
    one snapshot manager per shard (the stats' ``passes`` is the
    *global* pass index, so snapshots and replay agree on pass numbering
    across layouts), and one bounded halo cache and channel per edge.
    """

    __slots__ = ("plan", "subs", "aggs", "mgrs", "caches", "chans")

    def __init__(self, plan: ShardPlan, grid: np.ndarray, first_pass: int, policy):
        self.plan = plan
        self.subs = plan.scatter(grid)
        self.aggs = [AcceleratorStats(passes=first_pass) for _ in self.subs]
        self.mgrs = [
            None if policy is None else CheckpointManager(policy)
            for _ in self.subs
        ]
        for sub, agg, mgr in zip(self.subs, self.aggs, self.mgrs):
            if mgr is not None:
                mgr.seed(sub, agg)
        depth = (policy.every if policy is not None else 0) + 1
        self.caches = {e.name: deque(maxlen=depth) for e in plan.edges}
        self.chans = {e.name: Channel(1, name=e.name) for e in plan.edges}


class ShardedRunner:
    """Lockstep multi-device executor with shard-granular recovery.

    Parameters
    ----------
    spec, config, boundary:
        As for :class:`~repro.core.FPGAAccelerator`; the boundary mode
        is global (each sub-grid resolves cut edges locally, but those
        rows are discarded and rewritten by the exchange).
    shards:
        Number of simulated devices; the grid's streamed axis is split
        across them (see :class:`~repro.core.sharding.ShardPlan`).
    engine:
        Initial engine of every device's accelerator, one of
        :data:`~repro.core.accelerator.ENGINES`.  Each accelerator's
        native pool has the default size (one worker per CPU this
        process may run on); shards execute one at a time, so those
        pools never compete for the CPUs.
    engines:
        Optional per-device engine list overriding ``engine`` (length
        ``shards``) — the scheduler passes each backing worker's
        breaker-resolved engine here, so a shard landing on a degraded
        board starts on that board's conservative engine.
    checkpoint:
        Per-shard snapshot cadence — a
        :class:`~repro.runtime.checkpoint.CheckpointPolicy`, an int
        shorthand, or ``None`` to disable recovery (detected faults
        then propagate as typed errors).
    stall_watchdog:
        Spin attempts an exchange hop tolerates before the transport
        counts as wedged (default :attr:`STALL_WATCHDOG`).

    Per-pass compute is priced by :attr:`MODEL` and halo exchange at the
    PCIe bandwidth of :mod:`repro.runtime.host` (``PCIE_GBPS``), the
    same figures :meth:`~repro.models.performance.PerformanceModel
    .predict_sharded` uses.
    """

    #: Spin attempts an exchange hop tolerates before declaring the
    #: transport wedged (mirrors FPGAAccelerator.STALL_WATCHDOG).
    STALL_WATCHDOG = 256
    #: CRC-failed halo transfers are retried this many times before the
    #: exchange fails with :class:`~repro.errors.HaloExchangeError`.
    MAX_HALO_RETRIES = 2
    #: The performance model pricing each device's per-pass compute.
    MODEL = PerformanceModel(NALLATECH_385A)

    def __init__(
        self,
        spec: StencilSpec,
        config: BlockingConfig,
        boundary: str = "clamp",
        shards: int = 2,
        engine: str = "auto",
        engines=None,
        checkpoint=8,
        stall_watchdog: int | None = None,
    ):
        if shards < 1:
            raise ConfigurationError(
                f"shards must be >= 1, got {shards}",
                param="shards", value=shards, constraint="shards >= 1",
            )
        if engines is not None and len(engines) != shards:
            raise ConfigurationError(
                f"engines has {len(engines)} entries for {shards} shards",
                param="engines", value=len(engines),
                constraint="len(engines) == shards",
            )
        for name in engines if engines is not None else (engine,):
            check_engine(name)
        self.spec = spec
        self.config = config
        self.boundary = boundary
        self.shards = shards
        self.engine = engine
        self.stall_watchdog = (
            stall_watchdog if stall_watchdog is not None else self.STALL_WATCHDOG
        )
        self._policy = (
            None if checkpoint is None else as_manager(checkpoint).policy
        )
        self._pass_time_cache: dict[tuple[int, ...], float] = {}
        self._devices = [
            _ShardDevice(
                i,
                FPGAAccelerator(
                    spec, config, boundary, stall_watchdog=self.stall_watchdog,
                    engine=engines[i] if engines is not None else engine,
                ),
            )
            for i in range(shards)
        ]
        self._closed = False

    # -- lifecycle ------------------------------------------------------- #

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Release every device's worker pools (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for dev in self._devices:
            dev.acc.close()

    def __enter__(self) -> "ShardedRunner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # The per-device state of the latest run, readable after it returned
    # or raised: the scheduler settles every backing worker from it on
    # both paths.

    @property
    def engines(self) -> tuple[str, ...]:
        """Resolved engine per device (``"lost"`` for boards that died)."""
        return tuple("lost" if d.lost else d.engine for d in self._devices)

    @property
    def device_faults(self) -> tuple[int, ...]:
        """Detected faults charged to each device (loss included)."""
        return tuple(d.faults + (1 if d.lost else 0) for d in self._devices)

    @property
    def sim_time_s(self) -> float:
        """Lockstep simulated time spent: the furthest device clock."""
        return max(d.clock_s for d in self._devices)

    # -- pricing --------------------------------------------------------- #

    def _pass_time(self, sub_shape: tuple[int, ...]) -> float:
        """Modeled time of one hardware pass over one sub-grid shape."""
        key = tuple(sub_shape)
        t = self._pass_time_cache.get(key)
        if t is None:
            t = self.MODEL.predict_measured(
                self.spec, self.config, key, self.config.partime
            ).time_s
            self._pass_time_cache[key] = t
        return t

    def _steps_at(self, r: int) -> int:
        """Time steps global pass ``r`` advances (final pass may be partial)."""
        return min(self.config.partime, self._total_iters - r * self.config.partime)

    # -- entry point ------------------------------------------------------ #

    def run(
        self, grid: np.ndarray, iterations: int, expected_crc: int | None = None
    ) -> ShardedResult:
        """Advance ``grid`` by ``iterations`` steps across the devices.

        Returns the recomposed global grid; the input is not modified.
        Raises typed errors only: :class:`~repro.errors.ConfigurationError`
        at admission, :class:`~repro.errors.HaloExchangeError` when an
        exchange fails past its retry budget,
        :class:`~repro.errors.DeviceLostError` when a board dies with no
        survivor, and the original
        :class:`~repro.errors.FaultDetectedError` when a shard's
        rollback budget is exhausted (or ``checkpoint=None``).
        """
        if self._closed:
            raise ConfigurationError(
                "sharded runner is closed; create a new instance",
                param="closed", value=True,
                constraint="run() requires an open runner",
            )
        if iterations < 0:
            raise ConfigurationError(
                f"iterations must be >= 0, got {iterations}",
                param="iterations", value=iterations, constraint="iterations >= 0",
            )
        for dev in self._devices:
            dev.clock_s = 0.0
            dev.faults = 0
            dev.lost = False
        grid = np.ascontiguousarray(grid, dtype=np.float32)
        # Validates boundary/shape/halo-invariant before anything executes.
        plan = ShardPlan(self.config, grid.shape, self.boundary, self.shards)
        stats = ShardedStats(shards=self.shards)
        self._total_iters = iterations
        passes = self.config.passes(iterations)
        live = list(self._devices)
        current = grid.copy() if passes == 0 else grid
        p = 0  # the global pass running next
        while p < passes:
            if len(live) != plan.n_shards:
                plan = ShardPlan(self.config, grid.shape, self.boundary, len(live))
            seg = _Segment(plan, current, p, self._policy)
            lost: list[tuple[int, _ShardDevice]] = []
            while p < passes and not lost:
                for i, dev in enumerate(live):
                    self._advance(seg, i, dev, p + 1, p, stats)
                stats.passes += 1
                stats.steps_executed += self._steps_at(p)
                last = p + 1 == passes
                t_round = 0.0 if last else self._exchange(seg, p, stats)
                top = max(d.clock_s for d in live) + t_round
                for d in live:
                    d.clock_s = top
                if not last:
                    remaining = iterations - stats.steps_executed
                    for sub, agg, mgr in zip(seg.subs, seg.aggs, seg.mgrs):
                        if mgr is not None:
                            mgr.maybe_snapshot(sub, agg, remaining)
                    inj = fault_hooks.ACTIVE
                    if inj is not None:
                        lost = [
                            (i, dev)
                            for i, dev in enumerate(live)
                            if inj.device_lost(dev.index, p)
                        ]
                    if lost:
                        self._recover_lost(seg, live, lost, p, stats)
                p += 1
            for agg in seg.aggs:
                stats.rollbacks += agg.rollbacks
                stats.replayed_passes += agg.replayed_passes
                stats.checkpoints += agg.checkpoints
            current = plan.gather(seg.subs)

        stats.sim_time_s = self.sim_time_s
        golden_check(current, expected_crc, stats)
        return ShardedResult(current, stats, plan)

    # -- compute with shard-granular recovery ------------------------------ #

    def _advance(
        self, seg: _Segment, i: int, dev: _ShardDevice, stop: int,
        cached: int, stats: ShardedStats, fault: Exception | None = None,
    ) -> None:
        """Run shard ``i`` on ``dev`` until it has completed ``stop`` passes.

        The shard starts from the pass its counters stand at, after
        rolling back to its last snapshot when ``fault`` (an already
        reported failure) is given.  A detected fault on the way charges
        ``dev`` and rolls back the same way, so only this shard replays
        its tail; each replayed pass before ``cached`` re-applies the
        halo strips the shard received after it from the host-side
        cache, while its neighbors stay untouched.  The fault re-raises
        (typed) when recovery is disabled or the rollback budget is
        exhausted; a strip that has aged out of the bounded cache (only
        possible after a corrupt-snapshot fallback to the pass-0 base
        state) raises the fault behind the latest rollback.
        """
        mgr, agg = seg.mgrs[i], seg.aggs[i]
        err = fault
        while True:
            if fault is not None:
                if mgr is None:
                    raise fault
                seg.subs[i] = mgr.rollback(agg, fault).copy()
                err, fault = fault, None
            r = agg.passes
            if r >= stop:
                return
            try:
                out, s = dev.acc.run(seg.subs[i], self._steps_at(r))
            except FaultDetectedError as exc:
                dev.faults += 1
                fault = exc
                continue
            merge_counters(agg, s)
            seg.subs[i] = out
            dev.clock_s += self._pass_time(out.shape)
            if r < cached:
                self._reserve_halos(seg, i, r, dev, err, stats)

    def _reserve_halos(self, seg, i, r, dev, err, stats) -> None:
        """Re-apply the halo strips shard ``i`` received after pass ``r``."""
        for e in seg.plan.edges:
            if e.dst != i:
                continue
            strip = next((s for idx, s in seg.caches[e.name] if idx == r), None)
            if strip is None:
                raise err  # replay horizon exceeded the bounded halo cache
            seg.subs[i][e.dst_rows[0]:e.dst_rows[1]] = strip
            dev.clock_s += strip.nbytes / _LINK_BPS
            stats.halo_reserved += 1

    # -- halo exchange ----------------------------------------------------- #

    def _exchange(self, seg: _Segment, p: int, stats: ShardedStats) -> float:
        """Run exchange round ``p``; returns its host-link time."""
        t = 0.0
        for e in seg.plan.edges:
            strip, retries = self._transfer(seg, e, p, stats)
            seg.subs[e.dst][e.dst_rows[0]:e.dst_rows[1]] = strip
            seg.caches[e.name].append((p, strip))
            stats.exchanges += 1
            stats.exchange_retries += retries
            nbytes = strip.nbytes * (1 + retries)
            stats.exchange_bytes += nbytes
            t += nbytes / _LINK_BPS
        return t

    def _transfer(self, seg: _Segment, edge: HaloEdge, p: int, stats):
        """Move one halo strip sender → receiver with CRC verification.

        The CRC is computed at the sender *before* the strip enters the
        transport (where :class:`~repro.faults.HaloCorruptFault` and
        channel faults can strike); a receiver-side mismatch is detected,
        reported, and retried from the sender's intact interior — a
        retry budget overrun raises :class:`~repro.errors.HaloExchangeError`,
        and so does a hop stalled past the watchdog.
        Disarmed no fault can strike the hop, so neither CRC is computed.
        """
        inj = fault_hooks.ACTIVE
        chan = seg.chans[edge.name]
        error = partial(HaloExchangeError, edge=edge.name, shard=edge.dst, passes=p)
        attempts = 0
        while True:
            strip = np.ascontiguousarray(
                seg.subs[edge.src][edge.src_rows[0]:edge.src_rows[1]]
            )
            if inj is None:
                return chan.hop(strip, self.stall_watchdog, error), attempts
            golden = crc32_array(strip)
            strip = inj.corrupt_halo(edge.name, strip)
            arrived = chan.hop(strip, self.stall_watchdog, error)
            if crc32_array(arrived) == golden:
                if attempts:
                    fault_hooks.report_recovery(
                        f"halo {edge.name} retry {attempts} delivered an "
                        "intact strip"
                    )
                return arrived, attempts
            attempts += 1
            err = error(
                f"halo CRC mismatch on {edge.name} at pass {p} "
                f"(attempt {attempts})"
            )
            fault_hooks.report_detection(err)
            stats.halo_detections += 1
            if attempts > self.MAX_HALO_RETRIES:
                raise err

    # -- device loss and re-sharding --------------------------------------- #

    def _recover_lost(self, seg, live, lost, p, stats) -> None:
        """Recover lost shards onto the first survivor.

        Every lost shard's state is restored from its own snapshots and
        replayed — including pass ``p`` and its exchange round — on the
        first survivor, so all shard interiors sit at the same pass
        boundary; the caller then re-shards the recomposed grid across
        the survivors, which ``live`` is narrowed to.
        """
        for i, dev in lost:
            dev.lost = True
            stats.devices_lost += 1
        survivors = [d for d in live if not d.lost]
        if not survivors:
            i, dev = lost[0]
            raise fault_hooks.report_detection(
                DeviceLostError(
                    f"device {dev.index} lost after pass {p} and no "
                    "survivor remains",
                    device=dev.index, shard=i,
                )
            )
        host = survivors[0]
        for i, dev in lost:
            err = DeviceLostError(
                f"device {dev.index} (shard {i}) lost after pass {p}",
                device=dev.index, shard=i,
            )
            fault_hooks.report_detection(err)
            self._advance(seg, i, host, p + 1, p + 1, stats, fault=err)
            fault_hooks.report_recovery(
                f"shard {i} recovered onto device {host.index}; re-sharding "
                f"across {len(survivors)} survivors"
            )
        stats.reshards += 1
        live[:] = survivors


__all__ = [
    "ShardedRunner",
    "ShardedResult",
    "ShardedStats",
]
